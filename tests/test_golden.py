"""Golden output digests: the CLI's CSV bytes at small fixed configs.

Each case runs a ``rootcal`` subcommand through ``cli.main`` and compares the
SHA-256 of every CSV it writes with a committed value, so "same behaviour"
is checked against a fixed reference rather than only against a rerun.  The
run summary JSON is not digested because it holds ``wall_time_s``.

A change that alters output numbers on purpose refreshes these digests in
the same change and says why; ``python tests/test_golden.py`` prints the
current values.
"""

import hashlib
import json

import pytest

from rootcal import cli

SMALL = {"p_init": 2, "budget": 4, "reps_per_point": 3, "post_reps": 20}


def _method(mode, surrogate, acq, rss):
    return {"mode": mode, "surrogate": surrogate, "acq": acq, "rss": rss}


# problem -> methods, covering both surrogates, both modes, all three
# families and both search-space reduction rules
RUNS = {
    "himmelblau2d": [_method("root", "stochastic", "ei", True),
                     _method("min", "deterministic", "lcb", False)],
    "mm1": [_method("root", "deterministic", "pi", True),
            _method("min", "stochastic", "ei", False)],
    "sir": [_method("root", "stochastic", "pi", True),
            _method("min", "deterministic", "ei", False)],
    "rootless": [_method("root", "deterministic", "lcb", True),
                 _method("min", "stochastic", "pi", False)],
}

RUN_CASES = [(problem, i) for problem in RUNS for i in range(len(RUNS[problem]))]

GOLDEN = {
    "run/himmelblau2d/0/trace": "23b6a8360cf3159510fd55f8b52b328184147e37da2962d492abfd7866027060",
    "run/himmelblau2d/1/trace": "5fecc404e007e5edc1b306690efdc75a9d2d360f8a9f27c69df3125903c542c8",
    "run/mm1/0/trace": "682013fad85bdcd4a2b48beba8c25ecd274ff421c20f0ee2d2645c0ed719f37e",
    "run/mm1/1/trace": "6ac937f32cb91558f11dc28f18a5762783e30295c1e8c18ac86ad2577f3eee93",
    "run/sir/0/trace": "315395f44f84290c950b820f5ee45e725c6852f89c48b9bb5ecfe99ad3c4ca46",
    "run/sir/1/trace": "bb7f721cddeed379a806d93978b3533d997d6be2944a5dadb3971eff51d53a1f",
    "run/rootless/0/trace": "6c6370907487f4e0c11d48034ef29d268a151e8e9d4dca3b439d66f56ae7a406",
    "run/rootless/1/trace": "1e692dad6572685f3981bb3d7588bfc580cbc55e9f491ddc96cfd7342de30c3d",
    "sweep/long": "6dada39f0efe03d6eae669345b27ed09ea785e1346b1e55c4edbf9c169b94b1d",
    "sweep/aggregate": "2b4cb42bd11efd68919ef8ad474a8292c6e32c4d2bf275266a0435b9e911c688",
    "rootless/0.1": "c47d64e587e2d978e63c392cbbff18b67a41ef5fe890fda57d164cee60be5ad1",
    "rootless/2.0": "765bed8795390c7530b1902e45885bf0f402f57202f5343f8872da549754cf7f",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(tmp_path, **cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, **SMALL, **cfg}), encoding="utf-8")
    return str(path)


def run_digests(tmp_path, problem, index) -> dict:
    trace = tmp_path / "trace.csv"
    config = _write_config(
        tmp_path, problem=problem, methods=[RUNS[problem][index]],
        output={"trace": str(trace), "summary": str(tmp_path / "summary.json")},
    )
    assert cli.main(["run", config]) == cli.EXIT_OK
    return {f"run/{problem}/{index}/trace": _sha(trace)}


def sweep_digests(tmp_path) -> dict:
    long, agg = tmp_path / "long.csv", tmp_path / "agg.csv"
    config = _write_config(
        tmp_path, problem="himmelblau2d", macro_reps=2,
        methods=[_method("root", "stochastic", "ei", True),
                 _method("min", "deterministic", "pi", True)],
        output={"long": str(long), "aggregate": str(agg)},
    )
    assert cli.main(["sweep", config]) == cli.EXIT_OK
    return {"sweep/long": _sha(long), "sweep/aggregate": _sha(agg)}


def rootless_digests(tmp_path, eps) -> dict:
    out = tmp_path / "gaps.csv"
    assert cli.main(["rootless", "--eps", str(eps), "--design-sizes", "3,6",
                     "--seed", "5", "--n-seeds", "3", "--output", str(out)]) == cli.EXIT_OK
    return {f"rootless/{eps}": _sha(out)}


@pytest.mark.parametrize("problem,index", RUN_CASES)
def test_run_trace_digest(tmp_path, problem, index):
    for key, digest in run_digests(tmp_path, problem, index).items():
        assert digest == GOLDEN[key], key


def test_sweep_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("ROOTCAL_WORKERS", raising=False)
    for key, digest in sweep_digests(tmp_path).items():
        assert digest == GOLDEN[key], key


@pytest.mark.parametrize("eps", [0.1, 2.0])  # limiting and direct gap forms
def test_rootless_digest(tmp_path, eps):
    for key, digest in rootless_digests(tmp_path, eps).items():
        assert digest == GOLDEN[key], key


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    current = {}
    with tempfile.TemporaryDirectory() as tmp:
        for problem, index in RUN_CASES:
            current.update(run_digests(Path(tmp), problem, index))
        current.update(sweep_digests(Path(tmp)))
        for eps in (0.1, 2.0):
            current.update(rootless_digests(Path(tmp), eps))
    for key, digest in current.items():
        print(f'    "{key}": "{digest}",')
