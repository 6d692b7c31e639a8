"""Config parsing contract and the command-line front end."""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdawave.solver
from rdawave import cli
from rdawave.cli import main
from rdawave.config import DEFAULT_SEEDS, ConfigError, parse_config
from rdawave.reporting import write_csv

MINIMAL = """
model.alpha = 1.0
model.lambda = 1.0
grid.n = 64
solver.dt = 0.01
"""

SMALL_RUN = MINIMAL + """
grid.L = 20
solver.record_every = 20
path.seeds = 0,1
path.t_min = -8
experiment.tau_list = -1,-2,-4
experiment.t_end = 2.0
experiment.splits = 1:1,1:2
experiment.k_list = 4,8,12
"""


def errors_of(text, command=""):
    with pytest.raises(ConfigError) as exc:
        parse_config(text, command)
    return exc.value.errors


def test_empty_config_names_every_required_key():
    errs = "\n".join(errors_of(""))
    for key in ("model.alpha", "model.lambda", "grid.n", "solver.dt"):
        assert key in errs


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["model.gamma"] == 3.0
    assert cfg["grid.dim"] == 1
    assert cfg["grid.L"] == 40.0
    assert cfg["solver.scheme"] == "semi_implicit"
    assert cfg.seeds == list(DEFAULT_SEEDS)
    assert cfg.dt_path == cfg["solver.dt"]
    assert len(cfg.hash) == 16


def test_negative_alpha_reports_line_number():
    errs = errors_of("model.alpha = -1\nmodel.lambda = 1\ngrid.n = 8\nsolver.dt = 0.01\n")
    assert any("line 1" in e and "alpha must be positive" in e for e in errs)


def test_all_errors_collected_not_just_first():
    errs = errors_of("nonsense.key = 1\nmodel.alpha = oops\nmodel.alpha = 2\n")
    joined = "\n".join(errs)
    assert "unknown key" in joined
    assert "cannot parse" in joined
    assert "duplicate" in joined
    assert len(errs) >= 3


def test_cross_constraints():
    errs = errors_of(MINIMAL + "path.dt_path = 0.003\n")
    assert any("integer ratio" in e for e in errs)
    errs = errors_of(MINIMAL + "model.delta = 5.0\n")
    assert any("admissibility" in e for e in errs)
    errs = errors_of(MINIMAL + "experiment.k_list = 5,40\n", "tails")
    assert any("sqrt(2)" in e for e in errs)
    errs = errors_of(MINIMAL + "experiment.tau_list = -1,1\n", "absorb")
    assert any("negative" in e for e in errs)


def test_config_hash_is_content_addressed():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL + "# a comment changes nothing\n")
    c = parse_config(MINIMAL.replace("0.01", "0.02"))
    assert a.hash == b.hash
    assert a.hash != c.hash


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize("what", ["directory", "not utf-8"])
def test_unreadable_config_is_one_config_error(tmp_path, capsys, what):
    cfg = tmp_path / "run.cfg"
    if what == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: cannot read {cfg}: ")
    assert not out.exists()


def test_unexpected_handler_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(cfg, out_dir, deterministic):
        raise KeyError("experiment.nonexistent")

    monkeypatch.setitem(cli._HANDLERS, "simulate", broken)
    cfg = write_cfg(tmp_path, SMALL_RUN)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'experiment.nonexistent'\n"


def test_invalid_config_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model.alpha = -1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --out entries `check` cannot parse: (name, bytes), or None for a directory
UNREADABLE = {"malformed JSON": ("bad.json", b'{"config_hash": '),
              "JSON array": ("bad.json", b'["config_hash"]'),
              "JSON nested past the parser's depth": ("bad.json", b"[" * 100_000),
              "non-UTF-8 CSV": ("bad.csv", b"\xff\xfe# config_hash=\n"),
              "directory": ("sub.json", None)}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_check_names_a_file_it_cannot_parse_as_a_mismatch(tmp_path, capsys, case):
    """A file whose hash cannot be read is a mismatch (exit 1), not a
    program fault; a directory is not an output file and is not checked."""
    cfg, cfg_hash = write_cfg(tmp_path, MINIMAL), parse_config(MINIMAL).hash
    out = tmp_path / "out"
    write_csv(out / "good.csv", ["x"], [[1.0]], [f"config_hash={cfg_hash}"])
    name, content = UNREADABLE[case]
    if content is None:
        (out / name).mkdir()
    else:
        (out / name).write_bytes(content)
    rc = main(["check", "--config", cfg, "--out", str(out)])
    got = capsys.readouterr()
    assert got.err == ""
    if content is None:
        assert rc == 0 and got.out == f"check: 1/1 files match config hash {cfg_hash}\n"
    else:
        assert rc == 1 and got.out == (f"check: {name}: embedded hash '' != {cfg_hash}\n"
                                       f"check: 1/2 files match config hash {cfg_hash}\n")


def test_check_on_empty_directory_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    (tmp_path / "empty").mkdir()
    for out in (tmp_path / "empty", tmp_path / "missing"):
        assert main(["check", "--config", cfg, "--out", str(out)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == f"error: --out {out}: no output files to check\n"


@pytest.mark.parametrize("cmd", ["absorb", "pullback", "cocycle"])
@pytest.mark.parametrize("radius", ["1e150", "1e308"])
def test_divergence_is_one_stderr_line(tmp_path, capsys, cmd, radius):
    # data this large overflows the first step: the march reports it once,
    # with no warning of numpy's before it
    cfg = write_cfg(tmp_path, MINIMAL.replace("grid.n = 64", "grid.n = 32")
                    + "grid.L = 10\npath.seeds = 0\npath.t_min = -1\n"
                      "experiment.tau_list = -0.25,-0.5,-1\nexperiment.splits = 0.25:0.25\n"
                      f"experiment.radius_0 = {radius}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("divergence: "), err
    assert not out.exists()


def test_simulate_overflowing_energy_is_a_divergence(tmp_path, capsys):
    """A finite state whose E, Psi or tails pass the largest float diverged:
    exit 3, one line naming the first such record's t and the path's seed,
    no warning and no `--out`."""
    cfg = write_cfg(tmp_path, MINIMAL.replace("grid.n = 64", "grid.n = 16")
                    .replace("solver.dt = 0.01", "solver.dt = 0.05")
                    + "grid.L = 10\nsolver.record_every = 1\npath.seeds = 0\n"
                      "experiment.t_end = 0.25\nexperiment.radius_0 = 1e3\n"
                      "experiment.initial = random\nexperiment.k_list = 1,2\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr() == (
        "", "divergence: non-finite E, Psi or tail recorded at t=0.2 on path seed 0\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["absorb", "tails", "pullback"])
def test_report_overflowing_a_float_is_a_divergence(tmp_path, capsys, cmd):
    """With f off, data of radius 1e155 stays finite through every step, but
    its squared norms pass the largest float: a report holding such a number
    diverged, with exit 3, one line naming the report, no warning and no
    `--out`, where it would otherwise write `Infinity` or NaN into its JSON."""
    cfg = write_cfg(tmp_path, MINIMAL + "grid.L = 20\nmodel.a = 0\npath.seeds = 0\n"
                    "path.t_min = -4\nexperiment.tau_list = -1,-2,-4\n"
                    "experiment.k_list = 4,8,12\nexperiment.radius_0 = 1e155\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr() == ("", f"divergence: non-finite number in the {cmd} report\n")
    assert not out.exists()


def test_simulate_zero_data_gives_zero_energy(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN + "model.g.profile = zero\n"
                                          "model.h.profile = zero\n"
                                          "experiment.initial = zero\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--deterministic",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in
            (out / "trajectory_seed0.csv").read_text().splitlines()
            if not line.startswith("#")]
    cols = rows[0]
    e_idx = cols.index("E")
    assert len(rows) > 2
    assert all(float(r[e_idx]) == 0.0 for r in rows[1:])
    # the one tail, u^2 + |grad u|^2 + v^2 beyond k, named apart from the
    # energy-weighted tail_k* columns of older files
    assert cols[6:] == ["tail_uv_k4", "tail_uv_k8", "tail_uv_k12"]
    assert not any(col.startswith("tail_k") for col in cols)


def test_cocycle_subcommand_passes_and_embeds_hash(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main(["cocycle", "--config", cfg, "--deterministic",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "cocycle_report.json").read_text())
    assert payload["passed"] is True
    assert payload["schema_version"] == 1
    from rdawave.config import parse_config as pc
    assert payload["config_hash"] == pc(SMALL_RUN).hash
    # the verifier subcommand accepts its own outputs
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()


def test_seed_panel_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main(["cocycle", "--config", cfg, "--seed-panel", "3",
                 "--deterministic", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "cocycle_report.json").read_text())
    assert payload["seeds"] == [0, 1, 2]
    assert payload["config_hash"] == parse_config(
        SMALL_RUN.replace("path.seeds = 0,1", "path.seeds = 0,1,2")).hash


@pytest.mark.parametrize("n", [2 ** 62, 2 ** 64, 10 ** 20])
def test_seed_panel_past_what_a_list_holds_is_usage_error(tmp_path, capsys, n):
    # each is refused before a byte is allocated: 2**62 by the list's size
    # limit (MemoryError), 2**64 and 10**20 past the index type (OverflowError)
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "o"
    assert main(["absorb", "--config", cfg, "--seed-panel", str(n), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: --seed-panel {n}: more seeds than a list can hold\n")
    assert not out.exists()


def test_oversized_path_is_usage_error(tmp_path, capsys):
    # absorb samples its paths from path.t_min (simulate's starts at t = 0)
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("path.t_min = -8", "path.t_min = -1e7"))
    assert main(["absorb", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "size limit" in err


def test_write_csv_formats_numpy_floats(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["x", "y"], [[np.float64(1.5)], [2]])
    assert p.read_text() == "x,y\n1.5,2\n"


# -0.0, the least subnormal, the largest float and two 17-digit reprs
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 2.0 / 3.0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False)
                          | st.sampled_from(EDGE_FLOATS),
                          st.integers(-2 ** 70, 2 ** 70)), max_size=12))
def test_write_csv_cells_round_trip(rows):
    xs, ns = [x for x, _ in rows], [n for _, n in rows]
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "t.csv"
        write_csv(p, ["x", "x64", "n"], [xs, [np.float64(x) for x in xs], ns], ["h"])
        lines = p.read_text().splitlines()
    assert lines[:2] == ["# h", "x,x64,n"] and len(lines) == 2 + len(rows)
    for line, x, n in zip(lines[2:], xs, ns):
        assert line.split(",") == [repr(x), repr(x), str(n)]
        assert repr(float(line.split(",")[1])) == repr(x)  # -0.0 keeps its sign


@pytest.mark.parametrize("cmd", ["simulate", "absorb"])
@pytest.mark.parametrize("how", ["config", "panel"])
def test_empty_seed_list_is_usage_error(tmp_path, capsys, cmd, how):
    text, extra = SMALL_RUN, ["--seed-panel", "0"]
    if how == "config":
        text, extra = SMALL_RUN.replace("path.seeds = 0,1", "path.seeds ="), []
    out = tmp_path / "o"
    assert main([cmd, "--config", write_cfg(tmp_path, text), "--out", str(out)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "seed" in captured.err
    assert "PASS" not in captured.out
    assert not out.exists() or not any(out.iterdir())


def test_simulate_rejects_uneven_record_grid_before_compute(tmp_path, capsys):
    # 0.505 is not a whole number of record intervals (20 * 0.01)
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("experiment.t_end = 2.0",
                                                "experiment.t_end = 0.505"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "record" in err
    assert err.startswith("config error: line 12: experiment.t_end=0.505 ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["simulate", "absorb"])
@pytest.mark.parametrize("below", [False, True])
def test_out_at_or_below_a_file_is_usage_error_before_compute(tmp_path, capsys, monkeypatch,
                                                               cmd, below):
    def no_march(*args):
        raise AssertionError("marched")

    monkeypatch.setattr(rdawave.solver.Stepper, "march", no_march)
    plain = tmp_path / "plainfile"
    plain.write_text("not a directory\n")
    out = plain / "sub" if below else plain
    cfg = write_cfg(tmp_path, SMALL_RUN)
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: {plain} is not a directory\n"
    assert plain.read_text() == "not a directory\n"




# each key's (valid, invalid) draws: valid and boundary values, then zero,
# negative and out-of-range ones; None leaves the key out.  Small 1-D and 2-D
# grids and short ranges keep every run well under a second.
FUZZ_VALUES = {
    "grid.dim": (["1", None, "2"], ["0", "4"]),
    "model.alpha": (["1", "0.5"], ["0", "-1", None]),
    "model.lambda": (["1", "2"], ["0", "-1"]),
    "model.gamma": (["3", "1", "2", None], ["0", "3.5"]),
    "model.a": (["1", "0", None], ["-1"]),
    "grid.n": (["16", "32", "3"], ["2", "0", "-1"]),
    "grid.L": (["10", "5"], ["0", "-5"]),
    "solver.dt": (["0.01", "0.05"], ["0", "-0.01", "2"]),
    "solver.scheme": (["semi_implicit", "crank_nicolson_linear"], ["euler"]),
    "solver.record_every": (["1", "5"], ["0", "-1"]),
    "path.seeds": (["0", "0,1", str(2 ** 64 - 1)], ["", "-1", str(2 ** 64), "3,3"]),
    "path.t_min": (["-1", "-2"], ["0", "1"]),
    "path.dt_path": ([None, "0.01"], ["0", "-0.01", "0.02", "0.03"]),
    # -0.505 is off the step grid of either dt, -3 below either t_min
    "experiment.tau_list": (["-0.5,-1", "-0.25,-0.5,-1", "-1"],
                            ["", "0", "-3", "-0.505,-0.75"]),
    "experiment.t_end": (["0.5", "0.25"], ["0", "-1", "0.505"]),
    "experiment.k_list": (["1,2", "3"], ["8", "", "0", "-1", "2,2"]),
    "experiment.epsilon": (["1e-3", "1e6", None], ["0", "-1"]),
    "experiment.splits": (["0.25:0.25", "0.25:0.5,0.5:0.25"], ["", "0:1", "-1:1", "0.255:0.25"]),
    "experiment.radius_0": (["1", "1e3"], ["0", "-1"]),
    "experiment.growth_beta": (["0", "0.5", None], ["-1", "1000"]),
    "experiment.initial": (["zero", "random", "gaussian", None], ["bogus"]),
}


@st.composite
def fuzz_configs(draw):
    """A valid value for every key, then up to two keys set to invalid ones."""
    values = {k: draw(st.sampled_from(good)) for k, (good, _) in FUZZ_VALUES.items()}
    for k in draw(st.lists(st.sampled_from(list(FUZZ_VALUES)), max_size=2, unique=True)):
        values[k] = draw(st.sampled_from(FUZZ_VALUES[k][1]))
    if values["grid.dim"] == "2" and values["grid.n"] in ("16", "32"):  # 2-D: n <= 9
        values["grid.n"] = draw(st.sampled_from(["9", "3"]))
    return values


FUZZ_FIRST = {k: good[0] for k, (good, _) in FUZZ_VALUES.items()}


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=80, deadline=None)
@given(cmd=st.sampled_from(cli.SUBCOMMANDS), values=fuzz_configs())
# a tau off the step grid; a divergence; a finite state whose E and tails
# pass the largest float, a divergence too (exit 3, no --out); a seed no
# Philox key takes; a family radius past the largest float; finite states
# whose report numbers pass it, a divergence too
@example(cmd="absorb", values={**FUZZ_FIRST, "experiment.tau_list": "-0.505,-0.75"})
@example(cmd="cocycle", values={**FUZZ_FIRST, "experiment.radius_0": "1e3"})
@example(cmd="simulate", values={**FUZZ_FIRST, "solver.dt": "0.05", "solver.record_every": "1",
                                 "experiment.t_end": "0.25", "experiment.radius_0": "1e3",
                                 "experiment.initial": "random"})
@example(cmd="simulate", values={**FUZZ_FIRST, "path.seeds": "-1"})
@example(cmd="absorb", values={**FUZZ_FIRST, "experiment.growth_beta": "1000"})
@example(cmd="absorb", values={**FUZZ_FIRST, "model.a": "0", "experiment.radius_0": "1e155"})
def test_any_small_config_gives_valid_artifacts_or_stops_cleanly(cmd, values):
    """Every run exits 0, 1, 2 or 3, never with an internal error or a
    traceback; a usage error or a divergence leaves no `--out`, and a run
    that finishes leaves artifacts that `check` accepts, its JSON strict
    (no `Infinity` or `NaN`).  A usage error is found at parse time: only
    `config error:` lines, each naming its line (every key is drawn with a
    valid default or set in the file)."""
    text = "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        args = ["--config", str(cfg), "--deterministic", "--out", str(out)]
        err = io.StringIO()
        # every warning is recorded, none raised: a run prints no warning of its own
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main([cmd] + args)
            checked = main(["check"] + args) if rc in (0, 1) else None
        assert [str(w.message) for w in caught] == []
        assert rc in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            ok = ("config error: line ", "config error: missing required key ")
            if cmd == "check":  # nothing ran, so its --out holds no file to check
                ok += ("error: --out ",)
            assert all(line.startswith(ok) for line in err.getvalue().splitlines()), \
                err.getvalue()
        if rc in (2, 3):
            assert not out.exists()
        else:
            assert checked == 0, err.getvalue()
            for f in out.glob("*.json"):
                json.loads(f.read_text(), parse_constant=_not_json)


@pytest.mark.parametrize("cmd", ["absorb", "tails"])
def test_a_tau_off_the_step_grid_stops_at_parse_time(tmp_path, capsys, cmd):
    """The fuzz test's first example: the run from tau = -0.505 to 0 is no
    whole number of steps of dt = 0.01, so it stops before any compute."""
    values = {**FUZZ_FIRST, "experiment.tau_list": "-0.505,-0.75"}
    lines = [f"{k} = {v}\n" for k, v in values.items() if v is not None]
    lineno = next(i for i, line in enumerate(lines, start=1) if "tau_list" in line)
    out = tmp_path / "out"
    rc = main([cmd, "--config", write_cfg(tmp_path, "".join(lines)), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"config error: line {lineno}: tau_list entry -0.505 is not aligned with dt=0.01\n")
    assert not out.exists()


CUBE = """model.alpha = 1.0
model.lambda = 1.0
model.gamma = 3
grid.dim = 3
grid.n = 11
grid.L = 6
solver.dt = 0.02
solver.record_every = 5
path.t_min = -8
path.seeds = 0,1
experiment.tau_list = -1,-2,-4,-8
experiment.k_list = 1,2,3
experiment.epsilon = 0.5
experiment.splits = 0.2:0.2,0.2:0.4
"""


def test_the_papers_setting_runs_through_the_cli(tmp_path, capsys):
    """The paper's own setting at desk scale: the critical cubic on a 3-D box
    (n = 11, L = 6) through absorb, tails, pullback and cocycle, whose eight
    artifacts `check` accepts and whose JSON is strict.  epsilon is part of
    the config: at 1e-3 tails fails on a box this small."""
    cfg, out = write_cfg(tmp_path, CUBE), str(tmp_path / "out")
    for cmd in ("absorb", "tails", "pullback", "cocycle"):
        assert main([cmd, "--config", cfg, "--deterministic", "--out", out]) == 0, cmd
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--deterministic", "--out", out]) == 0
    assert "8/8 files match" in capsys.readouterr().out
    for name in ("absorb", "tails", "pullback", "cocycle"):
        json.loads((tmp_path / "out" / f"{name}_report.json").read_text(),
                   parse_constant=_not_json)
