"""Acceptance suite: the eight headline checks, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Desk scale: 1-D grid, n = 1024; the whole module takes ~1 minute.
"""
import filecmp

import numpy as np
import pytest

from rdawave.cli import main as cli_main
from rdawave.energy import EnergyObserver, energy_identity_residual, psi
from rdawave.experiments import (TemperedFamilySpec, absorption_experiment,
                                 cocycle_experiment, estimate_R, tail_experiment)
from rdawave.grid import Grid, cutoff_rho, grad_sq, inner
from rdawave.model import FieldProfile, PowerNonlinearity, make_model, rate_split
from rdawave.oracles import run_convergence_study
from rdawave.paths import FrozenPath, generate_path, shift
from rdawave.solver import SolveSpec, evolve

GRID = Grid(dim=1, half_width=40.0, n=1024)
DT = 0.01
SPEC = SolveSpec(dt=DT, record_every=20)

SPLITS = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0),
          (1.0, 3.0), (3.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
SEEDS8 = list(range(8))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def linear_model():
    return make_model(GRID, alpha=1.0, lam=1.0,
                      nonlin=PowerNonlinearity(a=0.0, gamma=3.0),
                      g=FieldProfile("zero"), h=FieldProfile("zero"))


def cubic_model():
    return make_model(GRID, alpha=1.0, lam=1.0,
                      nonlin=PowerNonlinearity(a=1.0, gamma=3.0),
                      g=FieldProfile("gaussian", width=1.0),
                      h=FieldProfile("gaussian", width=1.0))


@pytest.fixture(scope="module")
def convergence_study():
    return run_convergence_study(linear_model())


def test_criterion_1_linear_oracle(convergence_study):
    semi = convergence_study["semi_implicit"]["observed_orders"]
    cn = convergence_study["crank_nicolson_linear"]["observed_orders"]
    ok = (min(semi) >= 0.9
          and min(cn) >= 1.8)
    _report(1, "linear eigenmode oracle", ok,
            f"semi orders {[f'{o:.3f}' for o in semi]}, "
            f"cn orders {[f'{o:.3f}' for o in cn]}")


def _energy_records(model, path, dt, t_end, record_every=1):
    u0 = np.exp(-GRID.radius_sq())
    obs = EnergyObserver(path, model)
    spec = SolveSpec(dt=dt, record_every=record_every)
    evolve(u0, np.zeros(GRID.shape), 0.0, t_end, path, model, spec, observer=obs)
    return obs.ts, obs.E, obs.Psi


def test_criterion_2_energy_identity():
    # linear regime: differential residual shrinks at the scheme's order
    lin = linear_model()
    frozen = FrozenPath(lambda t: 0.0)
    diffs = [np.max(np.abs(energy_identity_residual(*_energy_records(lin, frozen, dt, 2.0),
                                                    lin.sigma)[0]))
             for dt in (0.02, 0.01, 0.005)]
    ratios_ok = diffs[0] / diffs[1] >= 1.7 and diffs[1] / diffs[2] >= 1.7

    # cubic nonlinearity on a realized Wiener path: integral residual at dt
    # and dt/2 (same piecewise-linear path) differ by a factor >= 1.7
    cub = cubic_model()
    wiener = generate_path(0, -1.0, 5.0, 0.02)
    ints = [np.max(np.abs(energy_identity_residual(*_energy_records(cub, wiener, dt, 5.0),
                                                   cub.sigma)[1]))
            for dt in (0.01, 0.005)]
    factor = ints[0] / ints[1]
    ok = ratios_ok and factor >= 1.7
    _report(2, "energy identity residuals", ok,
            f"linear diff ratios {diffs[0] / diffs[1]:.2f}, "
            f"{diffs[1] / diffs[2]:.2f}; stochastic int factor {factor:.2f}")


def test_criterion_3_cocycle_defect():
    rep = cocycle_experiment(SPLITS, [generate_path(s, 0.0, 5.0, DT) for s in SEEDS8],
                             cubic_model(), SPEC)
    worst = rep["margins"]["max_relative_defect"]
    _report(3, "cocycle identity", rep["passed"] and worst <= 1e-10,
            f"max relative defect {worst:.3e} over 8 splits x 8 seeds")


def test_criterion_4_pullback_absorption():
    model = cubic_model()
    taus = [-2.0, -4.0, -8.0, -16.0, -32.0, -64.0]
    paths = [generate_path(s, -64.0, 0.0, DT) for s in SEEDS8]
    limits = {}
    absorbed = True
    for radius_0 in (1.0, 10.0):
        fam = TemperedFamilySpec(radius_0=radius_0)
        rep = absorption_experiment(fam, taus, paths, model, SPEC)
        absorbed &= all(res["entry_index"] <= 2 for res in rep["results"].values())
        limits[radius_0] = {s: res["final_norm_uz_sq"][-1]
                            for s, res in rep["results"].items()}
    rel = max(abs(limits[1.0][s] - limits[10.0][s])
              / max(limits[1.0][s], limits[10.0][s]) for s in limits[1.0])
    ok = absorbed and rel <= 1e-8
    _report(4, "pullback absorption", ok,
            f"entry within first two taus; radius-forgetting gap {rel:.2e}")


def test_criterion_5_tail_decay():
    model = cubic_model()
    paths = [generate_path(s, -8.0, 0.0, DT) for s in SEEDS8]
    rep = tail_experiment(1e-3, [5.0, 10.0, 15.0, 20.0], [-2.0, -4.0, -8.0],
                          paths, model, SPEC)
    per_seed = rep["results"]["per_seed"]
    attained = all(res["attained_k"] is not None for res in per_seed.values())
    monotone = all(res["strictly_decreasing_in_k"] for res in per_seed.values())
    ok = rep["passed"] and attained and monotone
    _report(5, "tail decay", ok,
            f"global attained k = {rep['results']['global_attained_k']}")


def test_criterion_6_temperedness():
    # R(omega) is tempered if e^{-beta t} R(theta_{-t} omega) decays for every
    # beta > 0: per path and beta, the slope over t of log R - beta t fitted
    # at a short-memory parameter point (large sigma), so that the 32
    # fixed-window fits resolve even beta = 0.01, must be negative
    probe_model = make_model(GRID, alpha=20.0, lam=400.0)
    ts = np.arange(0.0, 100.0 + 1e-9, 0.5)
    slopes = []
    for seed in range(32):
        path = generate_path(seed, -200.0, 0.0, DT)
        log_R = np.log([estimate_R(shift(path, -t), probe_model, -100.0) for t in ts])
        slopes += [float(np.polyfit(ts, log_R - beta * ts, 1)[0]) for beta in (0.01, 0.1, 1.0)]
    worst = max(slopes)
    _report(6, "temperedness probe", worst < 0.0,
            f"worst fitted slope {worst:.4f} over 32 seeds x 3 betas")


def laplacian(grid, f):
    """The discrete Laplacian with zero Dirichlet ghosts, written out: on
    each axis, the second difference of the zero-padded values over h^2."""
    return sum(np.diff(np.pad(f, [(1, 1) if a == ax else (0, 0) for a in range(grid.dim)]),
                       n=2, axis=ax) for ax in range(grid.dim)) / grid.spacing ** 2


def cutoff_rho_prime(s):
    """rho' written out: 6t(1 - t) sign(s) with t = |s| - 1 on 1 < |s| < 2, else 0."""
    t = np.abs(s) - 1.0
    return np.where((t > 0.0) & (t < 1.0), 6.0 * t * (1.0 - t), 0.0) * np.sign(s)


def test_criterion_7_structural_suites():
    checks = {}

    path = generate_path(5, -10.0, 10.0, DT)
    checks["omega(0)=0"] = path.evaluate(0.0) == 0.0
    double = shift(shift(path, 1.0), 2.0)
    ts = np.linspace(-3.0, 3.0, 61)
    checks["shift group law"] = np.array_equal(
        double.evaluate(ts), shift(path, 3.0).evaluate(ts))

    rng = np.random.Generator(np.random.Philox(key=77))
    f = rng.standard_normal(GRID.shape)
    k = rng.standard_normal(GRID.shape)
    sym = abs(inner(GRID, laplacian(GRID, f), k) - inner(GRID, f, laplacian(GRID, k)))
    checks["laplacian symmetry"] = sym <= 1e-12 * max(
        abs(inner(GRID, f, laplacian(GRID, k))), 1.0)
    checks["laplacian nsd"] = inner(GRID, laplacian(GRID, f), f) <= 0.0
    sbp = abs(-inner(GRID, laplacian(GRID, f), f) - grad_sq(GRID, f))
    checks["summation by parts"] = sbp <= 1e-12 * grad_sq(GRID, f)

    s = np.linspace(-3.0, 3.0, 2401)
    checks["rho plateaus"] = (cutoff_rho(0.5) == 0.0 and cutoff_rho(1.0) == 0.0
                              and cutoff_rho(2.0) == 1.0 and cutoff_rho(3.0) == 1.0)
    checks["rho derivative bound"] = float(np.max(np.abs(cutoff_rho_prime(s)))) <= 1.5

    nl = PowerNonlinearity(a=1.3, gamma=3.0, b=0.0)
    u = np.linspace(-4.0, 4.0, 101)
    checks["f*u=(gamma+1)F"] = np.allclose(nl.f(u) * u, 4.0 * nl.F(u),
                                           rtol=1e-13, atol=1e-13)

    checks["sigma arithmetic"] = rate_split(1.0, 1.0, 4.0, 0.1)[1] == pytest.approx(
        0.05, rel=1e-15)

    model = cubic_model()
    u, v = rng.standard_normal(GRID.shape), rng.standard_normal(GRID.shape)
    total, terms = psi(u, v, 1.0, path, model)
    scale = max(abs(v) for v in terms.values())
    checks["psi breakdown"] = (len(terms) == 10
                               and abs(total - sum(terms.values())) <= 1e-12 * scale)

    failed = [name for name, ok in checks.items() if not ok]
    _report(7, "structural unit suites", not failed,
            "all pass" if not failed else f"failed: {failed}")


ACCEPT_CFG = """
model.alpha = 1.0
model.lambda = 1.0
grid.n = 512
grid.L = 40
solver.dt = 0.01
solver.record_every = 20
path.seeds = 0,1
path.t_min = -40
experiment.tau_list = -2,-4,-8,-16,-32
experiment.t_end = 5.0
experiment.splits = 1:1,1:2,2:1
"""


def test_criterion_8_deterministic_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ACCEPT_CFG)
    subcommands = ("simulate", "absorb", "tails", "pullback", "cocycle", "oracle")
    identical = True
    detail = []
    for cmd in subcommands:
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{cmd}_{rep}"
            code = cli_main([cmd, "--config", str(cfg), "--deterministic",
                             "--out", str(out)])
            assert code == 0, f"{cmd} exited {code}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                                   shallow=False)
        same = sorted(match) == names and not mismatch and not errors
        identical &= same
        detail.append(f"{cmd}:{'ok' if same else 'DIFFERS'}")
    capsys.readouterr()
    _report(8, "deterministic byte-identity", identical, ", ".join(detail))
