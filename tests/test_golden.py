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
    "run/himmelblau2d/0/trace": "106780dec1df4c9d0f1c7064d346a299b95ec625d7e63bb63072d186e5acbdc0",
    "run/himmelblau2d/1/trace": "6e06d5d1b5b6f7038b735c36f8274369fe7ccfce8f4f6ee6cde822b5ca1393a0",
    "run/mm1/0/trace": "dbf8b1923466e4773968bff75fa7ac96fd59dc1076cc087c70489af39ba45efe",
    "run/mm1/1/trace": "f3ad93884396f6a087b0d202cf67fcfc06071f86651607ef7643aebcc59546d2",
    "run/mm1/2/trace": "f39157c17515d2585eccc1282589c07a172d5a4d08fca04cdad6448b952a3d03",
    "run/sir/0/trace": "ec44f7bda9751ef072e6f056c6d7cdb16be178b29057c14e21423a467f22dd00",
    "run/sir/1/trace": "97deec05b21ab4684f37832885e58eae59d078f234fb376be918a59a5b290368",
    "run/sir/2/trace": "fb6c093cf64967a29d26e946ca30b3ea7cde68de0ef2a54345c91f995d8e1a75",
    "run/rootless/0/trace": "126740e18e5ba0890c3026c71bb718fcd518cf8100787a99ec38ecc802524ec6",
    "run/rootless/1/trace": "89ec9621895152c71b1af6e1354b0004ee4f81a480412acd10a5b0c3f143a8f0",
    "sweep/long": "605cb98ad2b70776e8aa7c24aa536d732e7d0750c3a8d3649e1d8d82a79c9a54",
    "sweep/aggregate": "1ade76598ae251939913abbe25aed1720ecc9c75ad22d1f212230d9e7dd017c3",
    "rootless/0.1": "47fd848af9964f39d7945d04b15a9e229c1858d4f2abeb5047ad6885e2d453f5",
    "rootless/2.0": "09613825fbb94d237f17486d4a0f5587353fb8e6f4c112412879d56c5d5447a8",
    "diagnose/mm1": "b5d90486f1b863a330a949cf78b1609929a9b89d8541d579c58a553b57218a69",
    "diagnose/sir": "219df90051da823554de2fdae490403b21806a24b21baf4778781db6f0523fd5",
    "validate": "f94bb9e60841f9d8f7fceb78b2dc6d39cfbd4c0fb9a5e7d4f40442178111789a",
}

# a change to how the loop post-evaluates its recommendation must leave these
# as they are
DECISIONS = {
    "run/himmelblau2d/0/decisions": "f5dcd62abd294d8a24bae7f2b8e40a104b856768f455a4675969def3f7f0dfbe",
    "run/himmelblau2d/1/decisions": "d1c16cfc03b5b95c3b283a5dead40450aa030ddaa1008f9af38411a281897b60",
    "run/mm1/0/decisions": "b2e6a75f6c766923a3fbc730527ddab930493ba6ef1d120a4aab3b781ab4ba83",
    "run/mm1/1/decisions": "f499702f0f04ae734411c648471a3257c9ec17c1e1c5b570e2348460f9d147a7",
    "run/mm1/2/decisions": "99218850eda08e93e96b1dbf18f9377522982a6f5cd4b6974b807d0c4fd89aac",
    "run/sir/0/decisions": "cc982624012a3a338f5ad9978a504aee5954a1e5f932f02febbeea1e9e6dde76",
    "run/sir/1/decisions": "1e6fd5b9079ea6f85fa369d47220eed562bad795d762607e744ce466be5c3294",
    "run/sir/2/decisions": "cd9a1b9a9ae781ea934f70c1e48536153597f3eb8a1a105f39d00eeaeddcffa7",
    "run/rootless/0/decisions": "6e0be9211640f5887c7fc6c6aa57343bccb20a3625a2ade8e7ebcc817ca2c87d",
    "run/rootless/1/decisions": "633c9b071be4133b246db1f2b9be83b20f326bf6e2500f906c2f4a10f0146bcc",
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
