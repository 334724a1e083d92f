"""Command line front end: config parsing, experiment execution, and
bit-stable CSV/JSON serialization.

Subcommands: run (one calibration, trace CSV + JSON summary), sweep (macro
replications, long + aggregate CSVs), validate (acquisition gradient check),
rootless (acquisition-gap study on a sign-constant objective), diagnose
(residual gap estimators at a point).  Exit codes: 0 success, 1 config
error, 2 runtime error, 3 validation failure.  Worker count for sweep comes
from the ROOTCAL_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .acquisition import AcqKind, Family, Mode
from .core import RngStream
from .diagnostics import chain_check, validate_gradients
from .engine import (
    OBS_KEY,
    RunConfig,
    macro_sweep,
    rootless_table,
    run_calibration,
)
from .simulators import make_model

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3

GRADIENT_TOL = 1e-4

_METHOD_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["min", "root"]},
        "surrogate": {"enum": ["deterministic", "stochastic"]},
        "acq": {"enum": ["lcb", "pi", "ei"]},
        "rss": {"type": "boolean"},
        "kappa": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["mode", "surrogate", "acq", "rss"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "problem": {"enum": ["himmelblau2d", "mm1", "sir", "rootless"]},
        "problem_params": {
            "type": "object",
            "properties": {
                "arrival_real": {"type": "number", "exclusiveMinimum": 0},
                "service_rate": {"type": "number", "exclusiveMinimum": 0},
                "n_entities": {"type": "integer", "minimum": 1},
                "infection_real": {"type": "number", "minimum": 0, "maximum": 1},
                "eps": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "methods": {"type": "array", "items": _METHOD_SCHEMA, "minItems": 1},
        "macro_reps": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "p_init": {"type": "integer", "minimum": 2},
        "budget": {"type": "integer", "minimum": 0},
        "reps_per_point": {"type": "integer", "minimum": 1},
        "post_reps": {"type": "integer", "minimum": 2},
        "alpha": {"type": "number", "minimum": 0, "maximum": 1},
        "theta_floor": {"type": "number", "exclusiveMinimum": 0},
        "output": {
            "type": "object",
            "properties": {
                "trace": {"type": "string"},
                "summary": {"type": "string"},
                "long": {"type": "string"},
                "aggregate": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["problem", "methods", "seed", "output"],
    "additionalProperties": False,
}


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    """Fixed 17-significant-digit numeric formatting for reproducible files."""
    return "%.17g" % float(x)


def load_config(path: str) -> dict:
    import jsonschema

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config: {exc.message}")
    return raw


def _method_config(method: dict, cfg: dict) -> RunConfig:
    acq = AcqKind(
        family=Family(method["acq"]),
        mode=Mode(method["mode"]),
        kappa=method.get("kappa", 1.0),
    )
    return RunConfig(
        objective_mode=Mode(method["mode"]),
        stochastic=method["surrogate"] == "stochastic",
        acq=acq,
        use_rss=method["rss"],
        p_init=cfg.get("p_init", 2),
        budget=cfg.get("budget", 10),
        reps_per_point=cfg.get("reps_per_point", 10),
        alpha=cfg.get("alpha", 0.95),
        theta_floor=cfg.get("theta_floor", 1e-8),
        post_reps=cfg.get("post_reps", 1000),
        seed=cfg["seed"],
    )


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _trace_rows(trace, dim: int):
    header = (
        ["iter"]
        + [f"theta_{i}" for i in range(dim)]
        + ["acq_value"]
        + [f"box_lo_{i}" for i in range(dim)]
        + [f"box_hi_{i}" for i in range(dim)]
        + [f"recommended_{i}" for i in range(dim)]
        + ["post_mean", "post_ci_half"]
    )
    rows = []
    for rec in trace.records:
        theta = [""] * dim if rec.evaluated is None else [_fmt(v) for v in rec.evaluated]
        rows.append(
            [str(rec.iteration)]
            + theta
            + [_fmt(rec.acq_value)]
            + [_fmt(v) for v in rec.box_lo]
            + [_fmt(v) for v in rec.box_hi]
            + [_fmt(v) for v in rec.recommended]
            + [_fmt(rec.post_mean), _fmt(rec.post_ci_half)]
        )
    return header, rows


def cmd_run(config_path: str) -> int:
    cfg = load_config(config_path)
    if len(cfg["methods"]) != 1:
        raise ConfigError("run expects exactly one method")
    out = cfg["output"]
    if "trace" not in out or "summary" not in out:
        raise ConfigError("run needs output.trace and output.summary paths")
    run_cfg = _method_config(cfg["methods"][0], cfg)
    base = RngStream(cfg["seed"]).child(0)
    sim = make_model(cfg["problem"], base.child(OBS_KEY), cfg.get("problem_params"))

    start = time.monotonic()
    trace = run_calibration(sim, run_cfg, stream_id=0)
    elapsed = time.monotonic() - start

    header, rows = _trace_rows(trace, sim.box.dim)
    _write_csv(out["trace"], header, rows)
    final = trace.records[-1]
    summary = {
        "method": run_cfg.label,
        "recommended": [float(v) for v in final.recommended],
        "post_mean": final.post_mean,
        "post_ci_half": final.post_ci_half,
        "seed": cfg["seed"],
        "wall_time_s": elapsed,
    }
    with open(out["summary"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_sweep(config_path: str) -> int:
    cfg = load_config(config_path)
    if "macro_reps" not in cfg:
        raise ConfigError("sweep needs macro_reps")
    out = cfg["output"]
    if "long" not in out or "aggregate" not in out:
        raise ConfigError("sweep needs output.long and output.aggregate paths")
    configs = [_method_config(m, cfg) for m in cfg["methods"]]
    labels = [c.label for c in configs]
    if len(set(labels)) != len(labels):
        raise ConfigError("methods must be distinct")
    workers = int(os.environ.get("ROOTCAL_WORKERS", "1"))
    long_rows, aggregate_rows, failures = macro_sweep(
        cfg["problem"], cfg.get("problem_params"), configs,
        cfg["macro_reps"], workers=workers,
    )
    for msg in failures:
        print(f"run failed: {msg}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} run(s) failed and were excluded", file=sys.stderr)
    _write_csv(
        out["long"],
        ["method", "macro_rep", "iter", "post_mean"],
        [[m, str(r), str(i), _fmt(p)] for m, r, i, p in long_rows],
    )
    _write_csv(
        out["aggregate"],
        ["method", "iter", "mean", "ci_half"],
        [[m, str(i), _fmt(mean), _fmt(ci)] for m, i, mean, ci in aggregate_rows],
    )
    return EXIT_OK


def cmd_validate(cases: int, seed: int, corrupt: bool = False) -> int:
    report = validate_gradients(cases, RngStream(seed), corrupt=corrupt)
    status = EXIT_OK
    for name in sorted(report):
        dev = report[name]
        print(f"{name}: max deviation {_fmt(dev)}")
        if not dev <= GRADIENT_TOL:
            status = EXIT_VALIDATION
    return status


def cmd_rootless(eps: float, design_sizes, seed: int, n_seeds: int,
                 output: str) -> int:
    if eps <= 0:
        raise ConfigError("eps must be positive")
    sizes = sorted(set(int(s) for s in design_sizes))
    if any(s < 2 for s in sizes):
        raise ConfigError("design sizes must be >= 2")
    rows = rootless_table(eps, sizes, seed, n_seeds)
    _write_csv(
        output,
        ["design_size", "lcb_diff", "pi_diff", "ei_diff"],
        [[str(s), _fmt(a), _fmt(b), _fmt(c)] for s, a, b, c in rows],
    )
    return EXIT_OK


def cmd_diagnose(problem: str, theta, reps: int, seed: int,
                 problem_params: dict | None = None) -> int:
    base = RngStream(seed)
    sim = make_model(problem, base.child(OBS_KEY), problem_params)
    theta = np.asarray(theta, dtype=float)
    if theta.size != sim.box.dim:
        raise ConfigError(f"theta must have {sim.box.dim} component(s)")
    if not sim.box.contains(theta):
        raise ConfigError("theta outside the parameter box")
    samples = [sim.draw(theta, base.child(1, j).generator()) for j in range(reps)]
    report = chain_check(samples)
    print(json.dumps({
        "problem": problem,
        "theta": [float(v) for v in theta],
        "reps": reps,
        "spatial_variability": report.spatial_variability,
        "aggregate_variance": report.aggregate_variance,
        "chain": list(report.chain),
        "chain_ordered": report.ordered,
    }, indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argument errors are config errors (exit 1), not the argparse default 2
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rootcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one calibration run from a config file")
    p_run.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="macro-replication sweep from a config file")
    p_sweep.add_argument("config")

    p_val = sub.add_parser("validate", help="acquisition gradient validation")
    p_val.add_argument("--cases", type=int, default=100)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p_root = sub.add_parser("rootless", help="acquisition gaps without a root")
    p_root.add_argument("--eps", type=float, required=True)
    p_root.add_argument("--design-sizes", default="5,9,13,17,21")
    p_root.add_argument("--seed", type=int, default=0)
    p_root.add_argument("--n-seeds", type=int, default=100)
    p_root.add_argument("--output", required=True)

    p_diag = sub.add_parser("diagnose", help="residual gap diagnostics at a point")
    p_diag.add_argument("--problem", required=True,
                        choices=["himmelblau2d", "mm1", "sir", "rootless"])
    p_diag.add_argument("--theta", required=True,
                        help="comma-separated parameter components")
    p_diag.add_argument("--reps", type=int, default=100)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--eps", type=float, default=None,
                        help="irreducible discrepancy for the rootless problem")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config)
        if args.command == "validate":
            if args.cases < 1:
                raise ConfigError("--cases must be >= 1")
            return cmd_validate(args.cases, args.seed, corrupt=args.corrupt)
        if args.command == "rootless":
            try:
                sizes = [int(s) for s in args.design_sizes.split(",") if s]
            except ValueError:
                raise ConfigError("--design-sizes must be comma-separated integers")
            return cmd_rootless(args.eps, sizes, args.seed, args.n_seeds,
                                args.output)
        if args.command == "diagnose":
            try:
                theta = [float(v) for v in args.theta.split(",") if v]
            except ValueError:
                raise ConfigError("--theta must be comma-separated numbers")
            params = {"eps": args.eps} if args.eps is not None else None
            return cmd_diagnose(args.problem, theta, args.reps, args.seed, params)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
