"""Golden output digests: the CLI's CSV bytes at small fixed configs.

Each case runs a ``rootcal`` subcommand through ``cli.main`` and compares the
SHA-256 of every CSV it writes (for ``diagnose`` and ``validate``, of its
stdout) with a committed value, so "same behaviour"
is checked against a fixed reference rather than only against a rerun.  The
run summary JSON is not digested because it holds ``wall_time_s``.

``DECISIONS`` digests each run trace without its post-evaluation columns
(``post_mean``, ``post_ci_half``): every choice the loop makes (design
points, box, recommendation) but none of the estimates it reports, which
never feed back into the loop.

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

# `rootcal validate` arguments; its stdout holds every acquisition's worst
# analytical-vs-central-difference gradient deviation to 17 digits
VALIDATE = ["--cases", "30", "--seed", "3"]

RUN_CASES = [(problem, i) for problem in RUNS for i in range(len(RUNS[problem]))]

GOLDEN = {
    "run/himmelblau2d/0/trace": "bfca892f9c18c8b0a80d14a88e11575704afec5935f8f7cf50d1d099073a0a09",
    "run/himmelblau2d/1/trace": "bbdda9d82eb728c20cb42d084c14a6eaa3a62f8a7a88066be0743d02fa615439",
    "run/mm1/0/trace": "4ca0b57e5f74a64c6d67b8b8bee949c5238d0d91f959e9f5bfd467f86c43c54d",
    "run/mm1/1/trace": "3040baa67c1c1657648e766823f630edf93aab7d33aa429627225a324d929606",
    "run/mm1/2/trace": "e10479f578cbfc0782972a91fe753fa2201a298f438cd823d4a37fdfbd9a992a",
    "run/sir/0/trace": "4210f85427e929f50b6dab568538d2de643bf7d4307f36e835cc53dc0ed9066b",
    "run/sir/1/trace": "732d2daab0f57ee640d1aff7faa611abb6f59697e5a95f7129a69737e41d3de8",
    "run/sir/2/trace": "650bab5e61471369167dcb9eb6436992f970ed87f1713fc38361dfcc63d21bb5",
    "run/rootless/0/trace": "a166d245906a72471a1cffaceae8a3a8c4bceaffe67474fcf788a89194ee80c1",
    "run/rootless/1/trace": "3bd15eb79c8dc89c33b7e460879bd44f2a67576614afc13d06aec27326728d50",
    "sweep/long": "1646c9a190f61bf255a5a4b7f548e0b05c17ffea5467c4d643aed59ffbcc1ce2",
    "sweep/aggregate": "5afb4713f3f39eaf0b452aae06d7415d5a104e672b9da93d5e0129022be8ce86",
    "rootless/0.1": "c1edeaf9424a2c3bc3a24d2bb5f5224a53e21339a9ff40610de16c047910afef",
    "rootless/2.0": "af9a1ccf7bfe5fd6089bd525349a82de813d44ceed50e0679f5891d881ab9dd5",
    "diagnose/mm1": "b5d90486f1b863a330a949cf78b1609929a9b89d8541d579c58a553b57218a69",
    "diagnose/sir": "219df90051da823554de2fdae490403b21806a24b21baf4778781db6f0523fd5",
    "validate": "f30c81a7700d98f25e069e083484eed70ebf624ffb09d27d68e7c3ff894df669",
}

# a change to how the loop post-evaluates its recommendation must leave these
# as they are
DECISIONS = {
    "run/himmelblau2d/0/decisions": "f1aaaeed7309a01e82bc4378c23d8c7e040b39c3ac8e97a0393fa1cb2b5c2e2d",
    "run/himmelblau2d/1/decisions": "1c0bb0c3507f76b34ca57560a5a7d9ce6e56330e517eeafbc8a534cde34629e4",
    "run/mm1/0/decisions": "aaeced92087ff5be8af2acad639ecc11d99f75b367ea6de2a7af610deb371969",
    "run/mm1/1/decisions": "0b77c09f338c2be7cf5b7a733041cfb3df49de613915f82c9b07d05e32265407",
    "run/mm1/2/decisions": "0c59df67c14d46757ef7de595f49fe890f619a70db74a56f3cd0fd1dfc13bd2b",
    "run/sir/0/decisions": "30a6f0113d3a59e2047d6fd908c32a006ec0bea1fae6ca2844b832cf2034e162",
    "run/sir/1/decisions": "e6d7b85577a33e401867b59ef4a75535e5f80c487d036e7487c3bb2f5dfbb1a3",
    "run/sir/2/decisions": "51ab89045de19d9b2a7f21973f62462feec0c285104356b1ae645a61ff4665f2",
    "run/rootless/0/decisions": "916a372b819351b071dc6e9242bdfb49e61f8dfd47e4e034b100ae5481b7c817",
    "run/rootless/1/decisions": "89de117efbea494bde073a912addc8b2cae13a3842b97f199093cc7c85518fa5",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_POST_COLUMNS = ("post_mean", "post_ci_half")


def _decision_sha(path) -> str:
    """SHA-256 of a trace CSV with its post-evaluation columns dropped."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in _POST_COLUMNS]
    assert len(keep) == len(rows[0]) - len(_POST_COLUMNS)
    text = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


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


def validate_digests() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", *VALIDATE])
    assert code == cli.EXIT_OK
    return {"validate": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _run_trace(tmp_path, problem, index):
    trace = tmp_path / "trace.csv"
    config = _write_config(
        tmp_path, problem=problem, methods=[RUNS[problem][index]],
        output={"trace": str(trace), "summary": str(tmp_path / "summary.json")},
    )
    assert cli.main(["run", config]) == cli.EXIT_OK
    return trace


def run_digests(tmp_path, problem, index) -> dict:
    return {f"run/{problem}/{index}/trace": _sha(_run_trace(tmp_path, problem, index))}


def decision_digests(tmp_path, problem, index) -> dict:
    trace = _run_trace(tmp_path, problem, index)
    return {f"run/{problem}/{index}/decisions": _decision_sha(trace)}


def sweep_digests(tmp_path) -> dict:
    long, agg = tmp_path / "long.csv", tmp_path / "agg.csv"
    config = _write_config(
        tmp_path, problem="himmelblau2d", macro_reps=2,
        methods=[_method("root", "stochastic", "ei", True),
                 _method("min", "deterministic", "pi", False)],
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


@pytest.mark.parametrize("problem,index", RUN_CASES)
def test_run_decision_digest(tmp_path, problem, index):
    for key, digest in decision_digests(tmp_path, problem, index).items():
        assert digest == DECISIONS[key], key


def test_sweep_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("ROOTCAL_WORKERS", raising=False)
    for key, digest in sweep_digests(tmp_path).items():
        assert digest == GOLDEN[key], key


@pytest.mark.parametrize("problem", sorted(DIAGNOSE))
def test_diagnose_digest(problem):
    for key, digest in diagnose_digests(problem).items():
        assert digest == GOLDEN[key], key


def test_validate_digest():
    for key, digest in validate_digests().items():
        assert digest == GOLDEN[key], key


@pytest.mark.parametrize("eps", [0.1, 2.0])  # limiting and direct gap forms
def test_rootless_digest(tmp_path, eps):
    for key, digest in rootless_digests(tmp_path, eps).items():
        assert digest == GOLDEN[key], key


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    current, decisions = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for problem, index in RUN_CASES:
            current.update(run_digests(Path(tmp), problem, index))
            decisions.update(decision_digests(Path(tmp), problem, index))
        current.update(sweep_digests(Path(tmp)))
        for eps in (0.1, 2.0):
            current.update(rootless_digests(Path(tmp), eps))
    for problem in sorted(DIAGNOSE):
        current.update(diagnose_digests(problem))
    current.update(validate_digests())
    print("GOLDEN")
    for key, digest in current.items():
        print(f'    "{key}": "{digest}",')
    print("DECISIONS")
    for key, digest in decisions.items():
        print(f'    "{key}": "{digest}",')
