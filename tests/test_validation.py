"""One source of validation rules: every semantic config error is the error of
the object or function that consumes the value, filed under its key's line."""
import pytest

from rdawave import cli
from rdawave.cli import main
from rdawave.config import READS, ConfigError, parse_config
from rdawave.experiments import (TemperedFamilySpec, check_k_list, check_positive,
                                 check_splits, check_tau_list)
from rdawave.grid import Grid
from rdawave.model import FieldProfile, PowerNonlinearity, rate_split
from rdawave.paths import check_path_range, check_seeds
from rdawave.solver import SolveSpec, check_path_alignment, check_stability

MINIMAL = {"model.alpha": "1.0", "model.lambda": "1.0", "grid.n": "64", "solver.dt": "0.01"}
GRID = Grid(1, 40.0, 64)  # MINIMAL's grid

# (key, invalid value, the owner's own call on it with MINIMAL's other values)
OWNED = [
    ("grid.dim", "4", lambda: Grid(4, 40.0, 64)),
    ("grid.L", "0", lambda: Grid(1, 0.0, 64)),
    ("grid.n", "2", lambda: Grid(1, 40.0, 2)),
    ("model.alpha", "-1", lambda: rate_split(-1.0, 1.0, 4.0)),
    ("model.lambda", "0", lambda: rate_split(1.0, 0.0, 4.0)),
    ("model.delta", "5", lambda: rate_split(1.0, 1.0, 4.0, 5.0)),
    ("model.delta", "0", lambda: rate_split(1.0, 1.0, 4.0, 0.0)),
    ("model.gamma", "4", lambda: PowerNonlinearity(gamma=4.0)),
    ("model.a", "-1", lambda: PowerNonlinearity(a=-1.0)),
    ("model.b", "-0.5", lambda: PowerNonlinearity(b=-0.5)),
    ("model.g.profile", "gausian", lambda: FieldProfile("gausian")),
    ("model.g.width", "0", lambda: FieldProfile(width=0.0)),
    ("model.h.profile", "triangle", lambda: FieldProfile("triangle")),
    ("model.h.width", "-1", lambda: FieldProfile(width=-1.0)),
    ("solver.dt", "-0.01", lambda: SolveSpec(dt=-0.01)),
    # lam' = 0.75 at alpha = lambda = 1 with the chosen delta = 0.5
    ("solver.dt", "3", lambda: check_stability(GRID, 3.0, 0.75, 5.0)),
    ("solver.scheme", "euler", lambda: SolveSpec(scheme="euler")),
    ("solver.record_every", "0", lambda: SolveSpec(record_every=0)),
    ("solver.stability_factor", "-1", lambda: SolveSpec(stability_factor=-1.0)),
    ("path.t_min", "1", lambda: check_path_range(1.0, 0.0, 0.01)),
    # more path nodes than the size limit, at dt_path = solver.dt
    ("path.t_min", "-3000000", lambda: check_path_range(-3e6, 0.0, 0.01)),
    ("path.t_min", "-1e300", lambda: check_path_range(-1e300, 0.0, 0.01)),
    ("path.dt_path", "0", lambda: check_path_range(-128.0, 0.0, 0.0)),
    # numpy's Philox takes no negative key; random_state's keys stay below 2**128
    ("path.seeds", "-1", lambda: check_seeds([-1])),
    ("path.seeds", "0,18446744073709551616", lambda: check_seeds([0, 2 ** 64])),
    # a report keys its results by seed: a repeated seed would run twice
    ("path.seeds", "3,3", lambda: check_seeds([3, 3])),
    # two runs from one tau would give a Cauchy decrement of the data alone
    ("experiment.tau_list", "-1,-2,-2,-4", lambda: check_tau_list([-1.0, -2.0, -2.0, -4.0], 0.01)),
    # and a report keys its cocycle defects by split: a repeated one would run twice
    ("experiment.splits", "0.1:0.1,0.1:0.1,0.1:0.2",
     lambda: check_splits([(0.1, 0.1), (0.1, 0.1), (0.1, 0.2)], 0.01)),
    # simulate's path runs from 0 to experiment.t_end, cocycle's from 0 to its
    # longest split, each over the node limit here
    ("experiment.t_end", "3000000", lambda: check_path_range(0.0, 3e6, 0.01)),
    ("experiment.splits", "3000000:1", lambda: check_path_range(0.0, 3000001.0, 0.01)),
    # every cocycle leg must march over some time
    ("experiment.splits", "-1:2", lambda: check_splits([(-1.0, 2.0)], 0.01)),
    ("experiment.splits", "0:0", lambda: check_splits([(0.0, 0.0)], 0.01)),
    ("experiment.splits", "1:1,1:0", lambda: check_splits([(1.0, 1.0), (1.0, 0.0)], 0.01)),
    # and every leg a whole number of solver steps
    ("experiment.splits", "0.505:1", lambda: check_splits([(0.505, 1.0)], 0.01)),
    ("path.dt_path", "0.003", lambda: check_path_alignment(0.003, 0.01)),
    ("experiment.radius_0", "0", lambda: TemperedFamilySpec(radius_0=0.0)),
    ("experiment.growth_beta", "-1", lambda: TemperedFamilySpec(growth_beta=-1.0)),
    # the family radius at the default tau list's earliest entry, past the largest float
    ("experiment.growth_beta", "1000",
     lambda: TemperedFamilySpec(growth_beta=1000.0).radius(-64.0)),
    ("experiment.epsilon", "0", lambda: check_positive("epsilon", 0.0)),
    ("experiment.k_list", "5,40", lambda: check_k_list([5.0, 40.0], GRID)),
    # a radius of 0 would divide by zero in the tail weight after the march
    ("experiment.k_list", "0,2", lambda: check_k_list([0.0, 2.0], GRID)),
    # a repeated radius would fail the tails' strict decrease in k, and
    # repeat a trajectory column
    ("experiment.k_list", "2,2", lambda: check_k_list([2.0, 2.0], GRID)),
    ("experiment.tau_list", "-1,1", lambda: check_tau_list([-1.0, 1.0], 0.01)),
    # every run from a tau to 0 marches whole solver steps
    ("experiment.tau_list", "-1,-0.505", lambda: check_tau_list([-1.0, -0.505], 0.01)),
    # and at least one: a tau or a leg within roundoff of no step is a whole zero steps
    ("experiment.tau_list", "-1,-1e-12", lambda: check_tau_list([-1.0, -1e-12], 0.01)),
    ("experiment.splits", "1:1e-12", lambda: check_splits([(1.0, 1e-12)], 0.01)),
]


# a key READS does not name: t_min's range is checked with a tau list, which absorb reads
SHARED = {"path.t_min": "absorb"}


def reader(key):
    """The first subcommand that checks `key`, or "" (no subcommand) for any
    other key outside the experiment section, which every subcommand checks."""
    return SHARED.get(key) or next((cmd for cmd, reads in READS.items()
                                    if key.removeprefix("experiment.") in reads), "")


@pytest.mark.parametrize("key,bad,owner", OWNED, ids=[f"{k}={v}" for k, v, _ in OWNED])
def test_owned_key_reports_the_owners_error_once_at_its_line(key, bad, owner):
    values = {**MINIMAL, key: bad}
    lineno = list(values).index(key) + 1
    with pytest.raises(ValueError) as direct:
        owner()
    with pytest.raises(ConfigError) as parsed:
        parse_config("".join(f"{k} = {v}\n" for k, v in values.items()), reader(key))
    assert parsed.value.errors == [f"line {lineno}: {direct.value}"]


NON_FINITE = [("model.delta", "nan"), ("model.alpha", "inf"), ("solver.dt", "nan"),
              ("grid.L", "-inf"), ("experiment.epsilon", "inf"),
              ("experiment.tau_list", "-1,nan"), ("experiment.splits", "1:inf")]


@pytest.mark.parametrize("key,bad", NON_FINITE, ids=[f"{k}={v}" for k, v in NON_FINITE])
def test_non_finite_value_is_a_parse_error_at_its_line(key, bad):
    values = {**MINIMAL, key: bad}
    lineno = list(values).index(key) + 1
    with pytest.raises(ConfigError) as parsed:
        parse_config("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert parsed.value.errors == [f"line {lineno}: cannot parse {key} from {bad!r}"]


def test_failed_input_skips_its_cross_checks():
    # a zero dt fails in SolveSpec; the dt/dt_path alignment is not tried with it
    text = "".join(f"{k} = {v}\n" for k, v in {**MINIMAL, "solver.dt": "0"}.items())
    with pytest.raises(ConfigError) as parsed:
        parse_config(text + "path.dt_path = 0.003\n")
    assert parsed.value.errors == ["line 4: dt must be positive"]


@pytest.mark.parametrize("key", ["experiment.tau_list", "path.t_min"])
def test_tau_below_the_path_range_is_filed_under_its_line(key):
    # the tau list's line if it is set, else the line of the t_min it falls below
    values = {**MINIMAL, "path.t_min": "-4", "experiment.tau_list": "-1,-8"}
    if key == "path.t_min":
        del values["experiment.tau_list"]  # the default list reaches -64
    lineno = list(values).index(key) + 1
    with pytest.raises(ConfigError) as parsed:
        parse_config("".join(f"{k} = {v}\n" for k, v in values.items()), "absorb")
    assert parsed.value.errors == [
        f"line {lineno}: experiment.tau_list exceeds the path range (path.t_min)"]


def test_valid_minimal_config_parses():
    cfg = parse_config("".join(f"{k} = {v}\n" for k, v in MINIMAL.items()))
    assert cfg["model.a"] == 1.0


SMALL_RUN = """model.alpha = 1.0
model.lambda = 1.0
grid.n = 64
solver.dt = 0.01
grid.L = 20
solver.record_every = 20
path.seeds = 0,1
path.t_min = -8
experiment.tau_list = -1,-2,-4
experiment.t_end = 2.0
experiment.splits = 1:1,1:2
experiment.k_list = 4,8,12
"""


def run(tmp_path, text, cmd):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    return main([cmd, "--config", str(cfg), "--deterministic", "--out", str(out)]), out


def test_zero_power_coefficient_is_accepted(tmp_path, capsys):
    # a = 0 switches the nonlinearity off; the model allows it, so the config does
    rc, out = run(tmp_path, SMALL_RUN + "model.a = 0\n", "simulate")
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert (out / "energy_seed0.csv").exists()


def test_nan_value_stops_before_any_output(tmp_path, capsys):
    rc, out = run(tmp_path, SMALL_RUN + "model.delta = nan\n", "simulate")
    assert rc == 2
    assert capsys.readouterr().err == "config error: line 13: cannot parse model.delta from 'nan'\n"
    assert not out.exists()


def test_unstable_dt_stops_before_any_output(tmp_path, capsys):
    # 1-D n=64, L=20: the bound is 5 / sqrt(4/h^2 + lam') = 1.49
    rc, out = run(tmp_path, SMALL_RUN.replace("solver.dt = 0.01", "solver.dt = 2"), "simulate")
    assert rc == 2
    assert capsys.readouterr().err == ("config error: line 4: dt=2.0 exceeds the stability "
                                       "bound 1.49 for the explicit part\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd,key,bad", [("simulate", "experiment.t_end", "3000000"),
                                         ("cocycle", "experiment.splits", "3000000:1")])
def test_oversized_path_range_stops_before_any_output(tmp_path, capsys, cmd, key, bad):
    lines = [f"{key} = {bad}" if line.startswith(key) else line
             for line in SMALL_RUN.splitlines()]
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key))
    rc, out = run(tmp_path, "\n".join(lines) + "\n", cmd)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: line {lineno}: t_min=")
    assert "over the size limit" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["-1:2", "0:0", "1:0"])
def test_split_without_positive_lengths_stops_before_any_output(tmp_path, capsys, bad):
    text = SMALL_RUN.replace("experiment.splits = 1:1,1:2", f"experiment.splits = {bad}")
    rc, out = run(tmp_path, text, "cocycle")
    assert rc == 2
    s, t = bad.split(":")
    assert capsys.readouterr() == (
        "", f"config error: line 11: splits entry {s}:{t} must have two positive lengths\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd,line,error", [
    ("absorb", "experiment.tau_list = -1e-12",
     "line 9: tau_list entry -1e-12 is under one step of dt=0.01 before 0"),
    ("cocycle", "experiment.splits = 1e-12:1",
     "line 11: splits entry 1e-12:1 has a length under one step of dt=0.01"),
    ("simulate", "experiment.t_end = 1e-12",
     "line 10: experiment.t_end=1e-12 must be a positive whole number of record intervals "
     "(solver.record_every*solver.dt = 0.2)")])
def test_a_run_of_no_steps_stops_before_any_output(tmp_path, capsys, cmd, line, error):
    """A time within roundoff of a whole zero steps is aligned, but no run
    may march zero steps: the config is refused, exit 2, not an internal error."""
    key = line.partition(" ")[0]
    text = "".join(line + "\n" if row.startswith(key + " ") else row
                   for row in SMALL_RUN.splitlines(keepends=True))
    rc, out = run(tmp_path, text, cmd)
    assert rc == 2
    assert capsys.readouterr() == ("", f"config error: {error}\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["simulate", "absorb", "oracle"])
def test_a_grid_over_the_node_limit_stops_before_any_output(tmp_path, capsys, cmd):
    # 10**15 nodes, which every other rule admits: the grid refuses it under
    # grid.n before any field is built
    text = edited(["grid.n", "solver.dt"], "grid.dim = 3\ngrid.n = 100000\nsolver.dt = 0.001\n")
    rc, out = run(tmp_path, text, cmd)
    with pytest.raises(ValueError) as direct:
        Grid(3, 20.0, 100000)
    assert rc == 2
    assert capsys.readouterr() == ("", f"config error: line 12: {direct.value}\n")
    assert "over the size limit of 200,000,000" in str(direct.value)
    assert not out.exists()


def test_misaligned_split_stops_before_any_output(tmp_path, capsys):
    text = SMALL_RUN.replace("experiment.splits = 1:1,1:2", "experiment.splits = 0.505:1")
    rc, out = run(tmp_path, text, "cocycle")
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: line 11: splits entry 0.505:1 ")
    assert "aligned with dt=0.01" in captured.err
    assert not out.exists()


def test_default_splits_do_not_constrain_dt_outside_cocycle(tmp_path, capsys):
    # dt = 0.03 does not divide the default 1:1 split; only cocycle uses splits
    text = SMALL_RUN.replace("solver.dt = 0.01", "solver.dt = 0.03").replace(
        "experiment.t_end = 2.0", "experiment.t_end = 3").replace("experiment.splits = 1:1,1:2\n", "")
    rc, out = run(tmp_path, text, "simulate")
    assert capsys.readouterr().err == ""
    assert rc == 0
    assert (out / "energy_seed0.csv").exists()


def test_profile_typo_is_a_line_numbered_config_error(tmp_path, capsys):
    rc, out = run(tmp_path, SMALL_RUN + "model.g.profile = gausian\n", "simulate")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: line 13: kind must be")
    assert not out.exists()


@pytest.mark.parametrize("cmd,key,least", [("absorb", "experiment.tau_list", 1),
                                           ("tails", "experiment.tau_list", 1),
                                           ("pullback", "experiment.tau_list", 3),
                                           ("tails", "experiment.k_list", 1),
                                           ("cocycle", "experiment.splits", 1)])
def test_empty_list_is_usage_error(tmp_path, capsys, cmd, key, least):
    text = "".join(line for line in SMALL_RUN.splitlines(keepends=True)
                   if not line.startswith(key)) + f"{key} =\n"
    rc, out = run(tmp_path, text, cmd)
    assert rc == 2
    name = key.split(".")[1]
    assert capsys.readouterr() == (
        "", f"config error: line 12: {name} needs {least} or more values, got 0\n")
    assert not out.exists()


# the seed rule holds for every subcommand, the tau range for those that read taus
@pytest.mark.parametrize("key,bad,lineno,cmd", [("path.seeds", "-1", 7, "simulate"),
                                                ("path.seeds", "-1", 7, "absorb"),
                                                ("path.seeds", "-1", 7, "cocycle"),
                                                ("path.seeds", "3,3", 7, "absorb"),
                                                ("path.seeds", "3,3", 7, "pullback"),
                                                ("path.seeds", "3,3", 7, "cocycle"),
                                                ("experiment.tau_list", "-1,-16", 9, "absorb")])
def test_bad_seed_or_tau_stops_before_any_output(tmp_path, capsys, cmd, key, bad, lineno):
    text = "".join(f"{key} = {bad}\n" if line.startswith(key) else line
                   for line in SMALL_RUN.splitlines(keepends=True))
    rc, out = run(tmp_path, text, cmd)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"config error: line {lineno}: ")
    assert not out.exists()


def edited(drop, extra):
    """SMALL_RUN without the lines of the keys in `drop`, then `extra`."""
    return "".join(line for line in SMALL_RUN.splitlines(keepends=True)
                   if line.split(" =")[0] not in drop) + extra


def case_id(cmd, drop, extra, *_):
    return f"{cmd}-{extra.strip().replace(' ', '').replace(chr(10), ';')}"


# only the subcommands that read a key check it: the default k_list reaches
# past L = 10, the default tau_list below t_min = -1, no path reaches 1e9, and
# a path from t_min = -3000000 would be over the node limit
UNREAD = [(cmd, ["grid.L", "experiment.k_list"], "grid.L = 10\n")
          for cmd in ("pullback", "absorb", "cocycle", "oracle")] + [
    (cmd, ["path.t_min", "experiment.tau_list"], "path.t_min = -1\n")
    for cmd in ("simulate", "cocycle")] + [
    ("pullback", ["experiment.t_end"], "experiment.t_end = 1e9\n")] + [
    # only tails reads epsilon
    ("simulate", [], "experiment.epsilon = -1\n")] + [
    # only absorb's and pullback's columns start on the family sphere
    (cmd, [], f"experiment.growth_beta = {beta}\n")
    for cmd in ("tails", "cocycle", "simulate") for beta in ("1000", "-1")] + [
    (cmd, ["path.t_min"], "path.t_min = -3000000\n") for cmd in ("simulate", "cocycle", "oracle")]


@pytest.mark.parametrize("cmd,drop,extra", UNREAD, ids=[case_id(*c) for c in UNREAD])
def test_a_key_the_subcommand_does_not_read_stops_nothing(tmp_path, capsys, cmd, drop, extra):
    rc, out = run(tmp_path, edited(drop, extra), cmd)
    assert capsys.readouterr().err == ""
    assert rc in (0, 1)
    assert any(out.iterdir())


# each reader's rule, at parse time; a default value has no line to name
READ = [("tails", ["grid.L", "experiment.k_list"], "grid.L = 10\n",
         "k_list must satisfy sqrt(2)*max(k) < L: a box-truncated weight would fake decay"),
        ("pullback", ["experiment.tau_list"], "experiment.tau_list = -1,-2\n",
         "line 12: tau_list needs 3 or more values, got 2"),
        ("cocycle", ["experiment.splits", "solver.dt"], "solver.dt = 0.03\n",
         "splits entry 1:1 is not aligned with dt=0.03"),
        ("simulate", ["experiment.t_end"], "experiment.t_end = 0.505\n",
         "line 12: experiment.t_end=0.505 must be a positive whole number of record "
         "intervals (solver.record_every*solver.dt = 0.2)"),
        # t_end/dt is past the largest float: no whole number of steps
        ("simulate", ["experiment.t_end"], "experiment.t_end = 1e307\n",
         "line 12: experiment.t_end=1e+307 must be a positive whole number of record "
         "intervals (solver.record_every*solver.dt = 0.2)"),
        ("simulate", ["experiment.t_end", "solver.dt"],
         "solver.dt = 1e-303\npath.dt_path = 1\nexperiment.t_end = 1e6\n",
         "line 13: experiment.t_end=1000000.0 must be a positive whole number of record "
         "intervals (solver.record_every*solver.dt = 2e-302)"),
        # a step ratio past the largest float is no whole number of steps
        ("simulate", ["solver.dt"], "solver.dt = 1e-10\npath.dt_path = 1e300\n",
         "line 13: dt_path=1e+300 and solver dt=1e-10 are not aligned: they need an integer "
         "ratio"),
        ("cocycle", ["solver.dt", "experiment.splits"],
         "solver.dt = 1e-10\nexperiment.splits = 1e300:1\n",
         "line 12: splits entry 1e+300:1 is not aligned with dt=1e-10"),
        ("absorb", ["solver.dt", "experiment.tau_list"],
         "solver.dt = 1e-10\npath.dt_path = 0.01\nexperiment.tau_list = -1e300\n",
         "line 13: tau_list entry -1e+300 is not aligned with dt=1e-10"),
        # each run from a tau to 0 is a whole number of solver steps
        *[(cmd, ["experiment.tau_list"], "experiment.tau_list = -1,-0.505,-2\n",
           "line 12: tau_list entry -0.505 is not aligned with dt=0.01")
          for cmd in ("absorb", "tails", "pullback")],
        ("tails", [], "experiment.epsilon = -1\n", "line 13: epsilon must be positive"),
        ("absorb", [], "experiment.growth_beta = -1\n",
         "line 13: growth_beta must be nonnegative"),
        ("oracle", [], "grid.dim = 2\n", "line 13: eigenmode oracle is 1-D, got grid.dim = 2"),
        # the study's own steps of up to 0.01, at SolveSpec's default factor 5,
        # against the bound on this grid; solver.dt passes its own
        ("oracle", ["grid.n", "grid.L", "solver.dt"],
         "grid.n = 1024\ngrid.L = 1\nsolver.dt = 0.001\n",
         "line 10: n=1024 is too fine for the eigenmode oracle's steps: dt=0.01 exceeds the "
         "stability bound 0.00488 for the explicit part"),
        *[(cmd, ["experiment.k_list"], "experiment.k_list = 2,2\n",
           "line 12: k_list entry 2 is repeated: the radii must be distinct")
          for cmd in ("tails", "simulate")],
        # the earliest tau is -4: exp(1000 * 2) is past the largest float
        *[(cmd, [], "experiment.growth_beta = 1000\n", "line 13: growth_beta=1000 puts the "
           "family radius at tau=-4 past the largest float") for cmd in ("absorb", "pullback")]]


@pytest.mark.parametrize("cmd,drop,extra,message", READ, ids=[case_id(*c) for c in READ])
def test_a_key_the_subcommand_reads_stops_it_at_parse_time(tmp_path, capsys, cmd, drop, extra,
                                                          message):
    rc, out = run(tmp_path, edited(drop, extra), cmd)
    assert rc == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


LIST_VALUES = {"tau_list": ["-1", "-2", "-4"], "k_list": ["4", "8", "12"],
               "splits": ["1:1", "1:2"]}
COUNTED = [(cmd, name, least) for cmd, reads in READS.items()
           for name, least in reads.items() if least]


@pytest.mark.parametrize("cmd,name,least", COUNTED, ids=[f"{c}-{n}" for c, n, _ in COUNTED])
def test_list_counts_agree_with_the_experiments(cmd, name, least):
    """READS' count for a list is the one its experiment checks for library
    callers: one value short fails both, at the list's line for the config."""
    key = f"experiment.{name}"

    def text(n):
        return edited([key], f"{key} = {','.join(LIST_VALUES[name][:n])}\n")

    parse_config(text(least), cmd)
    with pytest.raises(ConfigError) as parsed:
        parse_config(text(least - 1), cmd)
    message = f"{name} needs {least} or more values, got {least - 1}"
    assert parsed.value.errors == [f"line 12: {message}"]
    short = parse_config(text(least - 1))  # no subcommand: no experiment rule runs
    with pytest.raises(ValueError, match=f"^{message}$"):
        cli._EXPERIMENTS[cmd](short, short.build_model(), short.build_solve_spec())
