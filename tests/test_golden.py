"""Golden output digests: the CLI's CSV bytes at small fixed configs.

Each case runs a ``rootcal`` subcommand through ``cli.main`` and compares the
SHA-256 of every CSV it writes (for ``diagnose``, of its JSON on stdout) with
a committed value, so "same behaviour"
is checked against a fixed reference rather than only against a rerun.  The
run summary JSON is not digested because it holds ``wall_time_s``.

A change that alters output numbers on purpose refreshes these digests in
the same change and says why; ``python tests/test_golden.py`` prints the
current values.
"""

import contextlib
import hashlib
import io
import json

import pytest

from rootcal import cli

SMALL = {"p_init": 2, "budget": 4, "reps_per_point": 3, "post_reps": 20}


def _method(mode, surrogate, acq, rss):
    return {"mode": mode, "surrogate": surrogate, "acq": acq, "rss": rss}


# problem -> methods, covering both surrogates, both modes, all three
# families and both search-space reduction rules; the benchmark's method
# (root, stochastic, ei, rss) runs on every problem but rootless
RUNS = {
    "himmelblau2d": [_method("root", "stochastic", "ei", True),
                     _method("min", "deterministic", "lcb", False)],
    "mm1": [_method("root", "deterministic", "pi", True),
            _method("min", "stochastic", "ei", False),
            _method("root", "stochastic", "ei", True)],
    "sir": [_method("root", "stochastic", "pi", True),
            _method("min", "deterministic", "ei", False),
            _method("root", "stochastic", "ei", True)],
    "rootless": [_method("root", "deterministic", "lcb", True),
                 _method("min", "stochastic", "pi", False)],
}

# problem -> theta for `rootcal diagnose`; sir at 0.95 reaches days where
# susceptibles number fewer than twice the infected, which take several
# contact passes
DIAGNOSE = {"mm1": "7.5", "sir": "0.95"}

RUN_CASES = [(problem, i) for problem in RUNS for i in range(len(RUNS[problem]))]

GOLDEN = {
    "run/himmelblau2d/0/trace": "09e72607839da67a72334dad71d46196ed71f3c6ef90a25e468aa34a821c72c6",
    "run/himmelblau2d/1/trace": "3d9fbb421f514ff3711052211485347366671e8744d1cb1f54ecde260e60afe9",
    "run/mm1/0/trace": "11c60c0834fd47e59d76fea7f53e2a072fa2f961cb89d2ad970df100698b38e1",
    "run/mm1/1/trace": "e884fdd41b2e05197b8525cda7b1f46dbad18bd085f4d3fe9c92aed167ef05f1",
    "run/mm1/2/trace": "e7254ed0f8f2f5afd1c5e6c165a83dd025b84d9f0235e41e1da67815d9e50a0f",
    "run/sir/0/trace": "cb2d9c20491209870950812a82059a7ddb0108c84150a87b9139c6c48ecd8018",
    "run/sir/1/trace": "c9245de04b2e31abacabff33bd4f20f0239fe30d018bac84c4055920099479fd",
    "run/sir/2/trace": "3dc1f14b6e1558705c16fcc71e8375e6c500be2112259e2b3edbe20920d7d30c",
    "run/rootless/0/trace": "0ef776e84fbdc29624ec999c265b9226b4d7bd4edb4c48a5cfe4a4f2e004745c",
    "run/rootless/1/trace": "3cdaa09803b4df4dbd7e60f7f3d0d1d8d4436ddb7fcb44761f9b0aa6893323e1",
    "sweep/long": "d057167bb6a9b43734aca42acf2c4df743dff15af11721823eb84ed290ca05cd",
    "sweep/aggregate": "99f7e20402fc6a65f40c34867e93d74d58187eacabbfcbf005a1ec100663717f",
    "rootless/0.1": "47fd848af9964f39d7945d04b15a9e229c1858d4f2abeb5047ad6885e2d453f5",
    "rootless/2.0": "09613825fbb94d237f17486d4a0f5587353fb8e6f4c112412879d56c5d5447a8",
    "diagnose/mm1": "b5d90486f1b863a330a949cf78b1609929a9b89d8541d579c58a553b57218a69",
    "diagnose/sir": "219df90051da823554de2fdae490403b21806a24b21baf4778781db6f0523fd5",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(tmp_path, **cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, **SMALL, **cfg}), encoding="utf-8")
    return str(path)


def diagnose_digests(problem) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["diagnose", "--problem", problem, "--theta", DIAGNOSE[problem],
                         "--reps", "50", "--seed", "3"])
    assert code == cli.EXIT_OK
    return {f"diagnose/{problem}": hashlib.sha256(out.getvalue().encode()).hexdigest()}


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


@pytest.mark.parametrize("problem", sorted(DIAGNOSE))
def test_diagnose_digest(problem):
    for key, digest in diagnose_digests(problem).items():
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
    for problem in sorted(DIAGNOSE):
        current.update(diagnose_digests(problem))
    for key, digest in current.items():
        print(f'    "{key}": "{digest}",')
