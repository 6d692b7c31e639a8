"""Command-line front end: `rda-wave <subcommand> --config FILE [options]`.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage/config error
(an `--out` at or below an existing file included, caught before any compute),
3 numerical divergence, 4 internal error (a program fault, not an input's).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .energy import PSI_TERM_NAMES, EnergyObserver, energy_identity_residual
from .experiments import (INITIAL_STATES, absorption_experiment, cocycle_experiment,
                          pullback_convergence_experiment, tail_experiment)
from .oracles import run_convergence_study
from .paths import generate_path
from .reporting import header_lines, read_embedded_hash, report_text, write_csv, write_json
from .solver import DivergenceError, evolve

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_INTERNAL = 4

SUBCOMMANDS = ("simulate", "absorb", "tails", "pullback", "cocycle", "oracle", "check")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rda-wave",
        description="Pathwise simulation and random-attractor diagnostics "
                    "for the damped stochastic wave equation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed-panel", type=int, default=None,
                       help="override the seed list with seeds 0..N-1")
        p.add_argument("--deterministic", action="store_true",
                       help="omit timestamps so repeated runs are byte-identical")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def _load(args) -> RunConfig:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"), args.command)
    if args.seed_panel is not None:
        n = args.seed_panel
        if n < 1:
            raise ConfigError([f"--seed-panel {n}: need at least one seed"])
        try:
            cfg.values["path.seeds"] = list(range(n))
        except (OverflowError, MemoryError):  # N past 2**60: the list refuses before allocating
            raise ConfigError([f"--seed-panel {n}: more seeds than a list can hold"]) from None
    return cfg


def _paths_for(cfg: RunConfig, t_min: float, t_max: float):
    return [generate_path(seed, t_min, t_max, cfg.dt_path) for seed in cfg.seeds]


def _cmd_simulate(cfg: RunConfig, out_dir: Path, deterministic: bool) -> int:
    model = cfg.build_model()
    spec = cfg.build_solve_spec()
    seed = cfg.seeds[0]
    t_end = cfg["experiment.t_end"]
    path = generate_path(seed, 0.0, t_end, cfg.dt_path)
    u0, z0 = INITIAL_STATES[cfg["experiment.initial"]](model.grid, seed,
                                                      cfg["experiment.radius_0"])

    obs = EnergyObserver(path, model, k_list=cfg["experiment.k_list"])
    evolve(u0, z0, 0.0, t_end, path, model, spec, observer=obs)
    # a finite state whose E, Psi or tails pass the largest float diverged too
    finite = np.isfinite([obs.E, obs.Psi, *obs.tails]).all(axis=0)
    if not finite.all():
        raise DivergenceError(f"non-finite E, Psi or tail recorded at "
                              f"t={obs.ts[int(np.argmin(finite))]} on path seed {seed}")

    headers = header_lines(cfg.hash, deterministic)
    tail_cols = [f"tail_uv_k{k:g}" for k in obs.k_list]
    write_csv(out_dir / f"trajectory_seed{seed}.csv",
              ["t", "norm_u_h1", "norm_v_l2", "norm_z_l2", "E", "Psi"] + tail_cols,
              [obs.ts, obs.norm_u_h1, obs.norm_v_l2, obs.norm_z_l2, obs.E, obs.Psi,
               *obs.tails], headers)

    res_diff, res_int = energy_identity_residual(obs.ts, obs.E, obs.Psi, model.sigma)
    term_cols = [f"term_{i + 1:02d}" for i in range(len(PSI_TERM_NAMES))]
    write_csv(out_dir / f"energy_seed{seed}.csv",
              ["t", "E", "Psi"] + term_cols + ["residual_diff", "residual_int"],
              [obs.ts, obs.E, obs.Psi, *([terms[name] for terms in obs.terms]
                                         for name in PSI_TERM_NAMES),
               [0.0] + res_diff.tolist(), res_int], headers)
    sys.stdout.write(
        f"simulate: seed={seed} t_end={t_end} steps recorded={len(obs.ts)} "
        f"final E={obs.E[-1]!r}\n")
    return EXIT_OK


# report subcommands: name -> experiment(cfg, model, spec); the pullback
# experiments' paths run from path.t_min to 0, cocycle's from 0 to its longest split
_EXPERIMENTS = {
    "absorb": lambda cfg, model, spec: absorption_experiment(
        cfg.build_family(), cfg["experiment.tau_list"],
        _paths_for(cfg, cfg["path.t_min"], 0.0), model, spec),
    "tails": lambda cfg, model, spec: tail_experiment(
        cfg["experiment.epsilon"], cfg["experiment.k_list"], cfg["experiment.tau_list"],
        _paths_for(cfg, cfg["path.t_min"], 0.0), model, spec,
        initial_radius=cfg["experiment.radius_0"]),
    "pullback": lambda cfg, model, spec: pullback_convergence_experiment(
        cfg.build_family(), cfg["experiment.tau_list"],
        _paths_for(cfg, cfg["path.t_min"], 0.0), model, spec),
    "cocycle": lambda cfg, model, spec: cocycle_experiment(
        cfg["experiment.splits"],
        _paths_for(cfg, 0.0, max(map(sum, cfg["experiment.splits"]), default=0.0)),
        model, spec, initial_radius=cfg["experiment.radius_0"]),
}


def _cmd_report(name: str, cfg: RunConfig, out_dir: Path, deterministic: bool) -> int:
    """Run one report experiment and write `<name>_report.{json,txt}`."""
    report = _EXPERIMENTS[name](cfg, cfg.build_model(), cfg.build_solve_spec())
    try:  # a number past the largest float diverged, though no state did
        json.dumps(report, allow_nan=False)
    except ValueError:
        raise DivergenceError(f"non-finite number in the {name} report") from None
    write_json(out_dir / f"{name}_report.json", report, cfg.hash, deterministic)
    text = report_text(report, cfg.hash)
    (out_dir / f"{name}_report.txt").write_text(f"# config_hash={cfg.hash}\n" + text)
    sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_ASSERT


def _cmd_oracle(cfg: RunConfig, out_dir: Path, deterministic: bool) -> int:
    report = run_convergence_study(cfg.build_model())
    write_json(out_dir / "oracle_report.json", report, cfg.hash, deterministic)
    semi, cn = report["semi_implicit"], report["crank_nicolson_linear"]
    write_csv(out_dir / "oracle_errors.csv",
              ["dt", "semi_implicit_error", "crank_nicolson_error"],
              [report["dts"], semi["errors"], cn["errors"]], header_lines(cfg.hash, deterministic))
    ok = (min(semi["observed_orders"]) >= 0.9
          and min(cn["observed_orders"]) >= 1.8)
    sys.stdout.write(
        f"oracle: semi-implicit orders {semi['observed_orders']}, "
        f"crank-nicolson orders {cn['observed_orders']} -> "
        f"{'PASS' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_ASSERT


def _cmd_check(cfg: RunConfig, out_dir: Path, deterministic: bool) -> int:
    mismatches = []
    files = sorted(f for pattern in ("*.csv", "*.json", "*.txt") for f in out_dir.glob(pattern)
                   if f.is_file())
    if not files:
        sys.stderr.write(f"error: --out {out_dir}: no output files to check\n")
        return EXIT_USAGE
    for f in files:
        embedded = read_embedded_hash(f)
        if embedded != cfg.hash:
            mismatches.append((f.name, embedded))
    for name, embedded in mismatches:
        sys.stdout.write(f"check: {name}: embedded hash {embedded!r} != {cfg.hash}\n")
    sys.stdout.write(f"check: {len(files) - len(mismatches)}/{len(files)} files match "
                     f"config hash {cfg.hash}\n")
    return EXIT_OK if not mismatches else EXIT_ASSERT


_HANDLERS = {
    "simulate": _cmd_simulate,
    **{name: functools.partial(_cmd_report, name) for name in _EXPERIMENTS},
    "oracle": _cmd_oracle,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _load(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"config file not found: {exc.filename}\n")
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        sys.stderr.write(f"config error: cannot read {args.config}: {reason}\n")
        return EXIT_USAGE
    except ConfigError as exc:
        for err in exc.errors:
            sys.stderr.write(f"config error: {err}\n")
        return EXIT_USAGE
    except Exception as exc:  # a program fault, not the config's
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL

    out = Path(args.out)  # the first artifact written creates it: a file in its way fails now
    base = next(p for p in (out, *out.parents) if p.exists())
    if not base.is_dir():
        sys.stderr.write(f"error: --out {out}: {base} is not a directory\n")
        return EXIT_USAGE
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing E or tail is inf
            return _HANDLERS[args.command](cfg, out, args.deterministic)
    except DivergenceError as exc:
        sys.stderr.write(f"divergence: {exc}\n")
        return EXIT_DIVERGED
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
