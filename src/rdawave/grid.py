"""Truncated spatial domain: uniform Dirichlet grid, Laplacian, norms, cutoff weights.

The domain is the box [-L, L]^dim with homogeneous Dirichlet boundary; only
interior nodes are stored.  The forward-difference gradient convention is
chosen so that -(lap f, f) equals the squared discrete gradient norm exactly
(summation by parts).  A field is a plain float array shaped `grid.shape`,
and each function here takes the grid first.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .paths import _MAX_NODES

__all__ = [
    "Grid",
    "positive_power",
    "laplacian_matrix",
    "inner",
    "norm_l2",
    "norm_h1",
    "grad_sq",
    "grad_inner",
    "cutoff_rho",
    "tail_weighted_norms",
    "TailNorms",
]


def positive_power(x: float, k: int) -> bool:
    """Whether x**k is a positive finite float: it neither overflows nor underflows to 0."""
    try:
        return 0.0 < x ** k < math.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class Grid:
    dim: int
    half_width: float
    n: int  # interior nodes per axis

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        if self.n < 3:
            raise ValueError("n must be >= 3 (interior nodes per axis)")
        if self.n ** self.dim > _MAX_NODES:
            raise ValueError(f"n={self.n} in {self.dim}-D gives {self.n ** self.dim:.3g} nodes, "
                             f"over the size limit of {_MAX_NODES:,}")
        # the stability bound divides by spacing**2, every integral weighs by the cell
        # volume spacing**dim: both lie between spacing and spacing**max(2, dim)
        if not positive_power(self.spacing, max(2, self.dim)):
            raise ValueError(f"half_width={self.half_width:g} with n={self.n} in {self.dim}-D "
                             "gives a spacing**2 or cell volume outside the positive floats")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n + 1)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Interior node coordinates along one axis."""
        h = self.spacing
        return -self.half_width + h * np.arange(1, self.n + 1)

    def radius_sq(self, center: float = 0.0) -> np.ndarray:
        """|x|^2 at every node, x offset by `center` along the first axis."""
        xs = self.axis_coords()
        axes = list(np.meshgrid(*([xs] * self.dim), indexing="ij"))
        axes[0] = axes[0] - center
        return sum(a ** 2 for a in axes)

    def laplacian_max_eig(self) -> float:
        """Upper bound on the largest |eigenvalue| of the discrete Laplacian."""
        return 4.0 * self.dim / self.spacing ** 2


def laplacian_matrix(grid: Grid) -> "scipy.sparse.csr_matrix":
    """Sparse matrix of the discrete Laplacian (negative semidefinite)."""
    import scipy.sparse as sp  # here: importing the package loads numpy only

    n = grid.n
    h2 = grid.spacing ** 2
    one_d = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h2
    eye = sp.identity(n, format="csr")
    if grid.dim == 1:
        mat = one_d
    elif grid.dim == 2:
        mat = sp.kron(one_d, eye) + sp.kron(eye, one_d)
    else:
        mat = (sp.kron(sp.kron(one_d, eye), eye)
               + sp.kron(sp.kron(eye, one_d), eye)
               + sp.kron(sp.kron(eye, eye), one_d))
    return mat.tocsr()


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    return float((f * g).sum() * grid.cell_volume)


def norm_l2(grid: Grid, f: np.ndarray) -> float:
    return _norm_of_sq((f ** 2)[None], grid.cell_volume)[0]


def _record_sums(block: np.ndarray) -> np.ndarray:
    """Each record's sum, for a block of records along the leading axis: a
    record is one C-contiguous row, so this is bit-identical to its .sum()."""
    return block.reshape(len(block), -1).sum(axis=1)


def _norm_of_sq(sq: np.ndarray, vol: float) -> list:
    return np.sqrt(_record_sums(sq) * vol).tolist()


def _axis_diffs(grid: Grid, u: np.ndarray, ax: int) -> np.ndarray:
    """Forward differences along `ax` including both boundary-facing gaps.
    Bit-identical to np.diff of the zero-padded values: same C-order array,
    and the last gap is 0.0 - u[-1], so a zero there keeps its sign."""
    pre = (slice(None),) * ax
    d = np.empty(u.shape[:ax] + (u.shape[ax] + 1,) + u.shape[ax + 1:])
    d[pre + (0,)] = u[pre + (0,)]
    np.subtract(u[pre + (slice(1, None),)], u[pre + (slice(None, -1),)],
                out=d[pre + (slice(1, -1),)])
    np.subtract(0.0, u[pre + (slice(-1, None),)], out=d[pre + (slice(-1, None),)])
    d /= grid.spacing
    return d


def _grad_sum(products, vol: float) -> list:
    """Per-axis gradient products of a block summed axis by axis, times the
    cell volume: one value per record.  Each product is let go once summed,
    before the next is formed."""
    return (sum(map(_record_sums, products), 0.0) * vol).tolist()


def grad_sq(grid: Grid, f: np.ndarray) -> float:
    """Squared discrete gradient norm; equals -(lap f, f) exactly."""
    return _grad_sum(((_axis_diffs(grid, f, ax) ** 2)[None] for ax in range(grid.dim)),
                     grid.cell_volume)[0]


def grad_inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    return _grad_sum(((_axis_diffs(grid, f, ax) * _axis_diffs(grid, g, ax))[None]
                      for ax in range(grid.dim)), grid.cell_volume)[0]


def norm_h1(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(norm_l2(grid, f) ** 2 + grad_sq(grid, f)))


def cutoff_rho(s):
    """C^1 cutoff: 0 on |s|<=1, 1 on |s|>=2, smoothstep in between; |rho'| <= 1.5."""
    a = np.abs(np.asarray(s, dtype=float))
    t = np.clip(a - 1.0, 0.0, 1.0)
    out = t * t * (3.0 - 2.0 * t)
    return float(out) if np.isscalar(s) else out


@functools.lru_cache(maxsize=16)
def _tail_weights(grid: Grid, ks: tuple) -> tuple:
    """rho(|x|^2/k^2) for each radius of `ks`, stacked (K, 1, nodes) to
    broadcast against a block's records: at the nodes, then at the gap
    midpoints along each axis (n+1 gaps per grid line).  One entry per (grid,
    radii tuple): another order or subset of the radii is its own entry."""
    if any(k <= 0.0 for k in ks):
        raise ValueError("k must be positive")
    xs = grid.axis_coords()
    h = grid.spacing
    mids = np.concatenate(([xs[0] - 0.5 * h], xs + 0.5 * h))
    r_sqs = [grid.radius_sq()] + [
        sum(a ** 2 for a in np.meshgrid(*[mids if a == ax else xs for a in range(grid.dim)],
                                        indexing="ij"))
        for ax in range(grid.dim)]
    return tuple(np.stack([cutoff_rho(r_sq / k ** 2) for k in ks]).reshape(len(ks), 1, -1)
                 for r_sq in r_sqs)


TailNorms = namedtuple("TailNorms", ["u_l2_sq", "grad_u_sq", "v_l2_sq", "truncated"])


def tail_weighted_norms(grid: Grid, u: np.ndarray, v: np.ndarray, k: float) -> TailNorms:
    """Discrete integrals of |u|^2, |grad u|^2, |v|^2 weighted by rho(|x|^2/k^2).

    Meaningful only when sqrt(2)*k < L; otherwise the weight is clipped by the
    box and the result carries a truncation flag.
    """
    (u_l2, grad, v_l2), = _tail_sums(grid, (k,), (u ** 2)[None],
                                     [(_axis_diffs(grid, u, ax) ** 2)[None]
                                      for ax in range(grid.dim)], (v ** 2)[None])
    return TailNorms(u_l2[0], grad[0], v_l2[0], bool(np.sqrt(2.0) * k >= grid.half_width))


def _tail_sums(g: Grid, ks, u_sq, du_sq, v_sq) -> list:
    """The weighted u^2, (grad u)^2 and v^2 sums of `tail_weighted_norms` for
    each radius of `ks` and each record of a block, from its u^2, per-axis
    (grad u)^2 and v^2: per radius, the three sums as lists over records.
    Each (radius, record) product is one contiguous row, summed alone."""
    if not ks:
        return []
    node_w, *gap_w = _tail_weights(g, tuple(map(float, ks)))
    b, vol = len(u_sq), g.cell_volume

    def rows(w, sq):
        return (w * sq.reshape(b, -1)).reshape(len(ks) * b, -1)

    u_l2, v_l2 = ((_record_sums(rows(node_w, sq)) * vol).tolist() for sq in (u_sq, v_sq))
    grad = _grad_sum(map(rows, gap_w, du_sq), vol)
    return [(u_l2[i:i + b], grad[i:i + b], v_l2[i:i + b]) for i in range(0, len(u_l2), b)]
