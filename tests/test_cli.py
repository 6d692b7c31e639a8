"""Config parsing contract and the command-line front end."""
import json

import numpy as np
import pytest

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


def errors_of(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
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
    errs = errors_of(MINIMAL + "experiment.k_list = 5,40\n")
    assert any("sqrt(2)" in e for e in errs)
    errs = errors_of(MINIMAL + "experiment.tau_list = -1,1\n")
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


def test_invalid_config_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model.alpha = -1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_check_on_empty_directory_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    (tmp_path / "empty").mkdir()
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "empty")]) == 2
    capsys.readouterr()


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


def test_oversized_path_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("path.t_min = -8", "path.t_min = -1e7"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "size limit" in err


def test_write_csv_formats_numpy_floats(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["x", "y"], [[np.float64(1.5), 2]])
    assert p.read_text() == "x,y\n1.5,2\n"


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
    assert not out.exists()
