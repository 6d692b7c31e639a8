"""Box truncation is bounded by the tail.

The paper works on R^3; the code on the Dirichlet box [-L, L]^d.  The
paper's uniform tail estimate is what makes that truncation harmless: if
the H1 x L2 mass beyond radius ~k is small, a box beyond k changes little.
Here the t = 0 pullback state of the cubic equation on [-L, L] is compared,
on its own nodes, with the one on [-2L, 2L] at the same spacing (2n+1
nodes).  The difference stays below sqrt(tails(L/sqrt(2))) of the large-box
state and falls by over 100x from L = 10 to L = 20.  The relation is
empirical, not a theorem; measured, the difference is 2.2e-3 to 2.3e-3 at
L = 10 and 6.1e-6 to 1.4e-5 at L = 20, against bounds of 4.1e-3 to 6.9e-3
and 3.1e-5 to 6.0e-5, and it falls 164x to 384x."""
import math

import pytest

from rdawave.energy import RecordKernel
from rdawave.experiments import gaussian_state, product_norm_sq
from rdawave.grid import Grid
from rdawave.model import make_model
from rdawave.paths import generate_path
from rdawave.solver import SolveSpec, evolve

TAU, DT = -32.0, 0.01
SPEC = SolveSpec(dt=DT)
# (L, n) of the small boxes; each one's large box is (2L, 2n+1), so the
# L = 10 pair's large box is the L = 20 pair's small one
BOXES = ((10.0, 127), (20.0, 255))


def pullback_state(L, n, seed):
    """The model and the t = 0 state from gaussian data of radius 1 at TAU."""
    model = make_model(Grid(1, L, n))
    u0, z0 = gaussian_state(model.grid, 1.0)
    return model, evolve(u0, z0, TAU, 0.0, generate_path(seed, TAU, 0.0, DT), model, SPEC)


@pytest.mark.parametrize("seed", [0, 1])
def test_box_difference_is_bounded_by_the_tail_and_falls_with_L(seed):
    states = {L: pullback_state(L, n, seed) for L, n in BOXES + ((40.0, 511),)}
    relative = []
    for L, n in BOXES:
        small, (u, z) = states[L]
        large, (u_big, z_big) = states[2.0 * L]
        on_small = slice((n + 1) // 2, (n + 1) // 2 + n)  # the large box's nodes in [-L, L]
        diff = math.sqrt(product_norm_sq(small.grid, u - u_big[on_small], z - z_big[on_small]))
        tail = RecordKernel(u_big[None], z_big[None], large).tails((L / math.sqrt(2.0),))[0][0]
        assert diff <= math.sqrt(tail), (L, diff, math.sqrt(tail))
        relative.append(diff / math.sqrt(product_norm_sq(small.grid, u, z)))
    assert relative[0] >= 100.0 * relative[1], relative
