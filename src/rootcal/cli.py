"""Command line front end: config parsing, experiment execution, and
bit-stable CSV/JSON serialization.

Subcommands: run (one calibration, trace CSV + JSON summary), sweep (macro
replications, long + aggregate CSVs), validate (acquisition gradient check),
rootless (acquisition-gap study on a sign-constant objective), diagnose
(residual gap estimators at a point).  Exit codes: 0 success, 1 config
error, 2 runtime error, 3 validation failure.  Worker count for sweep comes
from the ROOTCAL_WORKERS environment variable (an integer >= 1, default 1).
Each config check has one owner: `load_config` checks the document's keys
and JSON types, and `RunConfig`, `AcqKind` and the models check the value
ranges when run and sweep build them, before anything is simulated or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .acquisition import AcqKind
from .core import RngStream
from .diagnostics import chain_check, validate_gradients
from .engine import (
    RunConfig,
    draw_checked,
    macro_sweep,
    observation_model,
    rootless_table,
    run_calibration,
)
from .simulators import PROBLEMS, RootlessQuadratic

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3

GRADIENT_TOL = 1e-4


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    """Fixed 17-significant-digit numeric formatting for reproducible files."""
    return "%.17g" % float(x)


def _non_finite(literal: str):
    """json.load's hook for NaN, Infinity and -Infinity, which JSON itself lacks."""
    raise ConfigError(f"invalid config: non-finite number {literal} is not allowed")


# the JSON type of each key a config may hold, with int an integer (not a bool)
# and float any number; value ranges are checked where the values are used
_PROTOCOL_KEYS = {  # the keys that override RunConfig's protocol defaults
    "p_init": int, "budget": int, "reps_per_point": int, "alpha": float, "post_reps": int,
}
_CONFIG_KEYS = {
    "problem": str, "problem_params": dict, "methods": list, "macro_reps": int,
    "seed": int, **_PROTOCOL_KEYS, "output": dict,
}
_METHOD_KEYS = {"mode": str, "surrogate": str, "acq": str, "rss": bool, "kappa": float}
_OUTPUT_KEYS = dict.fromkeys(("trace", "summary", "long", "aggregate"), str)
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number"}


def _typed(name: str, value, kind: type) -> None:
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"invalid config: {name} must be {_JSON_TYPES[kind]}, "
                          f"got {json.dumps(value)}")


def _checked(doc, kinds: dict, required=(), path: str = "") -> None:
    """Check that doc is a JSON object holding every `required` key and only keys
    of `kinds`, each of its JSON type; `path` prefixes the key names in messages."""
    _typed(path.rstrip(".") or "the config", doc, dict)
    for key in required:
        if key not in doc:
            raise ConfigError(f"invalid config: missing key {path}{key}")
    for key, value in doc.items():
        if key not in kinds:
            raise ConfigError(f"invalid config: unknown key {path}{key}")
        _typed(path + key, value, kinds[key])


def load_config(path: str) -> dict:
    """The config document at `path`, its shape checked: its keys, their JSON
    types, a non-empty `methods` list, the surrogate names and numeric
    `problem_params`.  Value ranges are left to `RunConfig`, `AcqKind` and the
    models, which `cmd_run` and `cmd_sweep` build under `_config_checked`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_non_finite)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    _checked(raw, _CONFIG_KEYS, ("problem", "methods", "seed", "output"))
    if not raw["methods"]:
        raise ConfigError("invalid config: methods must be a non-empty array, got []")
    for i, method in enumerate(raw["methods"]):
        _checked(method, _METHOD_KEYS, ("mode", "surrogate", "acq", "rss"), f"methods[{i}].")
        if method["surrogate"] not in ("deterministic", "stochastic"):
            raise ConfigError(f'invalid config: methods[{i}].surrogate must be "deterministic" '
                              f'or "stochastic", got {json.dumps(method["surrogate"])}')
    _checked(raw["output"], _OUTPUT_KEYS, path="output.")
    for key, value in raw.get("problem_params", {}).items():
        _typed(f"problem_params.{key}", value, float)
    return raw


def _method_config(method: dict, cfg: dict) -> RunConfig:
    return RunConfig(
        stochastic=method["surrogate"] == "stochastic",
        acq=AcqKind(method["acq"], method["mode"], method.get("kappa")),
        use_rss=method["rss"],
        seed=cfg["seed"],
        **{key: cfg[key] for key in _PROTOCOL_KEYS if key in cfg},
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


def _config_checked(call, *args):
    """call(*args) with a TypeError or ValueError as a ConfigError: the range checks of
    `RunConfig`, `AcqKind`, the models and `macro_sweep` (a run's error is a RuntimeError),
    a parameter the problem does not take, or a bad theta.  `run` and `sweep` check these
    before anything is simulated or written, and before a sweep starts any worker."""
    try:
        return call(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if len(cfg["methods"]) != 1:
        raise ConfigError("run expects exactly one method")
    out = cfg["output"]
    if "trace" not in out or "summary" not in out:
        raise ConfigError("run needs output.trace and output.summary paths")
    run_cfg = _config_checked(_method_config, cfg["methods"][0], cfg)
    sim = _config_checked(observation_model, cfg["problem"], cfg.get("problem_params"), cfg["seed"])

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


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    macro_reps = cfg.get("macro_reps")
    if macro_reps is None or macro_reps < 1:
        raise ConfigError(f"sweep needs macro_reps >= 1, got {macro_reps}")
    out = cfg["output"]
    if "long" not in out or "aggregate" not in out:
        raise ConfigError("sweep needs output.long and output.aggregate paths")
    configs = [_config_checked(_method_config, m, cfg) for m in cfg["methods"]]
    try:
        workers = _COUNT(os.environ.get("ROOTCAL_WORKERS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"ROOTCAL_WORKERS {exc}")
    _config_checked(observation_model, cfg["problem"], cfg.get("problem_params"), cfg["seed"])
    long_rows, aggregate_rows = _config_checked(
        macro_sweep, cfg["problem"], cfg.get("problem_params"), configs, macro_reps, workers,
    )
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


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_gradients(args.cases, RngStream(args.seed))
    status = EXIT_OK
    for name in sorted(report):
        dev = report[name]
        print(f"{name}: max deviation {_fmt(dev)}")
        if not dev <= GRADIENT_TOL:
            status = EXIT_VALIDATION
    return status


def cmd_rootless(args: argparse.Namespace) -> int:
    _config_checked(RootlessQuadratic, args.eps)
    rows = rootless_table(args.eps, sorted(set(args.design_sizes)), args.seed, args.n_seeds)
    _write_csv(
        args.output,
        ["design_size", "lcb_diff", "pi_diff", "ei_diff"],
        [[str(s), _fmt(a), _fmt(b), _fmt(c)] for s, a, b, c in rows],
    )
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    params = None if args.eps is None else {"eps": args.eps}
    sim = _config_checked(observation_model, args.problem, params, args.seed)
    draws = _config_checked(draw_checked, sim, args.theta,
                            RngStream(args.seed).child(1).generator(), args.reps)
    report = chain_check(draws)
    print(json.dumps({
        "problem": args.problem,
        "theta": args.theta,
        "reps": args.reps,
        "spatial_variability": report.spatial_variability,
        "aggregate_variance": report.aggregate_variance,
        "chain": list(report.chain),
        "chain_ordered": report.ordered,
    }, indent=2))
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type: an integer >= `low`."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return parse


_COUNT, _SEED = _int_at_least(1), _int_at_least(0)


def _list_of(item, what: str):
    """An argparse type: a non-empty comma-separated list of `item`s."""
    def parse(text: str) -> list:
        try:
            values = [item(v) for v in text.split(",") if v]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"must be comma-separated {what}, got {text!r}")
        return values
    return parse


class _Parser(argparse.ArgumentParser):
    # argument errors are config errors (exit 1), not the argparse default 2
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rootcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one calibration run from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="macro-replication sweep from a config file")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_val = sub.add_parser("validate", help="acquisition gradient validation")
    p_val.add_argument("--cases", type=_COUNT, default=100)
    p_val.add_argument("--seed", type=_SEED, default=0)
    p_val.set_defaults(handler=cmd_validate)

    p_root = sub.add_parser("rootless", help="acquisition gaps without a root")
    p_root.add_argument("--eps", type=float, required=True)
    p_root.add_argument("--design-sizes", type=_list_of(_int_at_least(2), "integers"),
                        default="5,9,13,17,21")
    p_root.add_argument("--seed", type=_SEED, default=0)
    p_root.add_argument("--n-seeds", type=_COUNT, default=100)
    p_root.add_argument("--output", required=True)
    p_root.set_defaults(handler=cmd_rootless)

    p_diag = sub.add_parser("diagnose", help="residual gap diagnostics at a point")
    p_diag.add_argument("--problem", required=True, choices=list(PROBLEMS))
    p_diag.add_argument("--theta", type=_list_of(float, "numbers"), required=True,
                        help="comma-separated parameter components")
    p_diag.add_argument("--reps", type=_COUNT, default=100)
    p_diag.add_argument("--seed", type=_SEED, default=0)
    p_diag.add_argument("--eps", type=float, default=None,
                        help="irreducible discrepancy for the rootless problem")
    p_diag.set_defaults(handler=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
