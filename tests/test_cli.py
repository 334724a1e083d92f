import csv
import inspect
import json

import numpy as np
import pytest

from rootcal.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    ConfigError,
    _method_config,
    build_parser,
    load_config,
    main,
)
from rootcal.acquisition import Family, Mode
from rootcal.engine import observation_model
from rootcal.simulators import PROBLEMS

BUDGET = 2


def _base_config(tmp_path, **overrides):
    cfg = {
        "problem": "rootless",
        "problem_params": {"eps": 0.5},
        "methods": [
            {"mode": "root", "surrogate": "stochastic", "acq": "ei", "rss": True}
        ],
        "seed": 0,
        "budget": BUDGET,
        "post_reps": 20,
        "output": {
            "trace": str(tmp_path / "trace.csv"),
            "summary": str(tmp_path / "summary.json"),
        },
    }
    cfg.update(overrides)
    return cfg


def _run_or_sweep_config(tmp_path, **overrides):
    """A config that both `run` and `sweep` accept."""
    cfg = _base_config(tmp_path, macro_reps=1, **overrides)
    cfg["output"].update(long=str(tmp_path / "long.csv"), aggregate=str(tmp_path / "agg.csv"))
    return cfg


_DROP = object()


def _edited(cfg, changes):
    """cfg with each `{path: value}` change made; a path is a tuple of keys and
    list indices, `_DROP` removes the value there and the empty path replaces
    the whole document."""
    for path, value in changes.items():
        if not path:
            return value
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return cfg


def _method(**fields):
    return {("methods", 0, key): value for key, value in fields.items()}


def _problem(problem, **params):
    return {("problem",): problem, ("problem_params",): params}


# (id, changes to `_run_or_sweep_config`, text stderr must hold), each a config
# that `run` and `sweep` reject with exit 1 before writing anything
BAD_CONFIGS = [
    ("unknown-problem", {("problem",): "nope"}, "unknown problem: nope"),
    ("eps-negative", {("problem_params", "eps"): -1}, "eps must be positive and finite"),
    ("eps-string", {("problem_params", "eps"): "1"},
     'problem_params.eps must be a number, got "1"'),
    ("infection-2", _problem("sir", infection_real=2), "infection_real must be in [0, 1]"),
    ("infection-negative", _problem("sir", infection_real=-0.1),
     "infection_real must be in [0, 1]"),
    ("params-list", {("problem_params",): [0.5]}, "problem_params must be an object"),
    ("params-null", {("problem_params",): None}, "problem_params must be an object, got null"),
    ("methods-empty", {("methods",): []}, "methods must be a non-empty array"),
    ("methods-object", {("methods",): {}}, "methods must be an array, got {}"),
    ("methods-number", {("methods",): [1]}, "methods[0] must be an object, got 1"),
    ("p-init-1", {("p_init",): 1}, "p_init must be >= 2"),
    ("post-reps-1", {("post_reps",): 1}, "post_reps must be >= 2"),
    ("alpha-2", {("alpha",): 2}, "alpha must be in [0, 1]"),
    ("alpha-string", {("alpha",): "0.9"}, 'alpha must be a number, got "0.9"'),
    ("reps-per-point-0", {("reps_per_point",): 0}, "reps_per_point must be >= 1"),
    ("budget-negative", {("budget",): -1}, "budget must be >= 0"),
    ("budget-fraction", {("budget",): 2.5}, "budget must be an integer, got 2.5"),
    ("budget-string", {("budget",): "2"}, 'budget must be an integer, got "2"'),
    ("budget-bool", {("budget",): True}, "budget must be an integer, got true"),
    ("seed-negative", {("seed",): -1}, "seed must be >= 0"),
    ("seed-fraction", {("seed",): 1.5}, "seed must be an integer, got 1.5"),
    ("missing-seed", {("seed",): _DROP}, "missing key seed"),
    ("missing-output", {("output",): _DROP}, "missing key output"),
    ("kappa-on-ei", _method(kappa=2.0), "kappa=2.0 is read only by lcb, not ei"),
    ("kappa-on-pi", _method(acq="pi", kappa=2.0), "kappa=2.0 is read only by lcb, not pi"),
    ("kappa-negative", _method(acq="lcb", kappa=-1), "kappa must be positive and finite"),
    ("mode-max", _method(mode="max"), "'max'"),
    ("acq-ucb", _method(acq="ucb"), "'ucb'"),
    ("surrogate-gp", _method(surrogate="gp"), 'methods[0].surrogate must be "deterministic"'),
    ("rss-string", _method(rss="yes"), 'methods[0].rss must be a boolean, got "yes"'),
    ("rss-min-sk", _method(mode="min"), "rss needs mode root, not min"),
    ("rss-min-krig", _method(mode="min", surrogate="deterministic"),
     "rss needs mode root, not min"),
    ("unknown-key", {("extra",): 1}, "unknown key extra"),
    ("unknown-method-key", _method(surprise=True), "unknown key methods[0].surprise"),
    ("unknown-output-key", {("output", "plot"): "plot.png"}, "unknown key output.plot"),
    ("trace-number", {("output", "trace"): 5}, "output.trace must be a string, got 5"),
    ("arrival-0", _problem("mm1", arrival_real=0), "arrival_real must be positive"),
    ("arrival-negative", _problem("mm1", arrival_real=-1), "arrival_real must be positive"),
    ("service-0", _problem("mm1", service_rate=0), "service_rate must be positive"),
    ("service-negative", _problem("mm1", service_rate=-2), "service_rate must be positive"),
    ("entities-0", _problem("mm1", n_entities=0), "n_entities must be an integer >= 1"),
    ("entities-fraction", _problem("mm1", n_entities=1.5),
     "n_entities must be an integer >= 1, got 1.5"),
    ("entities-bool", _problem("mm1", n_entities=True),
     "problem_params.n_entities must be a number, got true"),
    ("top-level-list", {(): ["problem"]}, 'the config must be an object, got ["problem"]'),
]


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _assert_config_error(tmp_path, capsys, command, changes, needle):
    """`command` on the base config with `changes` exits 1 naming `needle`, writing nothing."""
    path = _write(tmp_path, _edited(_run_or_sweep_config(tmp_path), changes))
    assert main([command, path]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path):
        cfg = _base_config(tmp_path)
        assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK

        with open(cfg["output"]["trace"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == BUDGET + 1
        assert rows[0]["theta_0"] == ""  # pre-acquisition record
        assert rows[1]["theta_0"] != ""
        for row in rows:
            assert -1.0 <= float(row["recommended_0"]) <= 1.0

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["method"] == "root-ei-sk-rss"
        assert summary["seed"] == 0
        assert summary["post_mean"] == pytest.approx(float(rows[-1]["post_mean"]))

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _base_config(tmp_path)
        path = _write(tmp_path, cfg)
        assert main(["run", path]) == EXIT_OK
        first = (tmp_path / "trace.csv").read_bytes()
        assert main(["run", path]) == EXIT_OK
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_rejects_multiple_methods(self, tmp_path):
        cfg = _base_config(tmp_path)
        cfg["methods"].append(
            {"mode": "min", "surrogate": "stochastic", "acq": "ei", "rss": False}
        )
        assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG

    def test_missing_output_paths(self, tmp_path):
        cfg = _base_config(tmp_path, output={"trace": str(tmp_path / "t.csv")})
        assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG


class TestConfigValidation:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, command):
        """A UTF-16 file with its byte-order mark, as some editors save JSON."""
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(_base_config(tmp_path)).encode("utf-16-le"))
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))
        assert main([command, str(path)]) == EXIT_CONFIG
        assert f"config error: cannot read config {path}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_leaves_no_output(self, tmp_path):
        cfg = _base_config(tmp_path)
        cfg["problem"] = "unknown"
        assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "trace.csv").exists()

    def test_unknown_subcommand_is_config_error(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_every_subcommand_carries_its_handler(self):
        """`main` dispatches only through each subparser's `handler`."""
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert set(subcommands) == {"run", "sweep", "validate", "rootless", "diagnose"}
        for name, subparser in subcommands.items():
            assert subparser.get_default("handler").__name__ == f"cmd_{name}"

    @pytest.mark.parametrize("command,changes,needle", [
        pytest.param(command, changes, needle, id=f"{case}-{command}")
        for case, changes, needle in BAD_CONFIGS for command in ("run", "sweep")
    ] + [pytest.param("sweep", {("macro_reps",): 0}, "macro_reps >= 1, got 0",
                      id="macro-reps-0-sweep")])
    def test_bad_config_fails_naming_it(self, tmp_path, capsys, command, changes, needle):
        _assert_config_error(tmp_path, capsys, command, changes, needle)

    def test_unknown_top_level_key(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "run", {("extra",): 1}, "unknown key extra")

    def test_unknown_method_key(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "run", _method(surprise=True),
                             "unknown key methods[0].surprise")

    def test_bad_enum_value(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "run", _method(acq="ucb"), "'ucb'")

    @pytest.mark.parametrize("acq", ["pi", "ei"])
    def test_kappa_off_lcb_rejected(self, tmp_path, capsys, acq):
        _assert_config_error(tmp_path, capsys, "run", _method(acq=acq, kappa=2.0),
                             f"kappa=2.0 is read only by lcb, not {acq}")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("changes,key", [
        (_problem("mm1", arrival_real="@1e400"), "arrival_real"),
        (_problem("mm1", service_rate="@1e400"), "service_rate"),
        (_method(acq="lcb", kappa="@1e400"), "kappa"),
        ({("problem_params", "eps"): "@1e400"}, "eps"),
    ], ids=["arrival", "service", "kappa", "eps"])
    def test_overflowing_literal_fails_naming_it(self, tmp_path, capsys, command, changes,
                                                 key):
        """json.load reads 1e400 as inf, which the `NaN`/`Infinity` hook never sees."""
        cfg = _edited(_run_or_sweep_config(tmp_path), changes)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"@1e400"', "1e400"))
        assert main([command, str(path)]) == EXIT_CONFIG
        assert f"{key} must be positive and finite, got inf" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_param_the_problem_does_not_take_fails_naming_it(self, tmp_path, capsys,
                                                             command):
        cfg = _run_or_sweep_config(tmp_path, problem="mm1",
                                   problem_params={"infection_real": 0.5})
        assert main([command, _write(tmp_path, cfg)]) == EXIT_CONFIG
        assert "infection_real" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("edit,literal", [
        (lambda cfg: cfg["problem_params"].update(eps="@NaN"), "NaN"),
        (lambda cfg: cfg.update(problem="mm1", problem_params={"arrival_real": "@NaN"}),
         "NaN"),
        (lambda cfg: cfg.update(problem="sir", problem_params={"infection_real": "@NaN"}),
         "NaN"),
        (lambda cfg: cfg["methods"][0].update(acq="lcb", kappa="@Infinity"), "Infinity"),
        (lambda cfg: cfg.update(problem="mm1", problem_params={"service_rate": "@Infinity"}),
         "Infinity"),
        (lambda cfg: cfg.update(alpha="@-Infinity"), "-Infinity"),
    ], ids=["eps-nan", "arrival-nan", "infection-nan", "kappa-inf", "service-inf",
            "alpha-minus-inf"])
    def test_non_finite_literal_is_config_error_naming_it(self, tmp_path, capsys,
                                                          command, edit, literal):
        cfg = _run_or_sweep_config(tmp_path)
        edit(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace(f'"@{literal}"', literal))
        with pytest.raises(ConfigError, match=f"non-finite number {literal} "):
            load_config(str(path))
        assert main([command, str(path)]) == EXIT_CONFIG
        assert f"non-finite number {literal} " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_problems_and_their_params_are_the_model_table(self, tmp_path):
        """`diagnose --problem` lists the model table's names, every `Mode` x
        `Family` pair builds a method, and the `problem_params` keys a problem
        takes are exactly the keywords of its constructor."""
        diagnose = build_parser()._subparsers._group_actions[0].choices["diagnose"]
        problem = next(a for a in diagnose._actions if a.dest == "problem")
        assert list(problem.choices) == list(PROBLEMS)
        for mode in Mode:
            for family in Family:
                method = {"mode": mode.value, "surrogate": "stochastic",
                          "acq": family.value, "rss": False}
                assert _method_config(method, {"seed": 0}).label == \
                    f"{mode.value}-{family.value}-sk"
        defaults = {}
        for cls in PROBLEMS.values():
            constructor = cls.from_stream if "from_stream" in vars(cls) else cls
            defaults[cls] = {name: p.default
                             for name, p in inspect.signature(constructor).parameters.items()
                             if name != "obs_rng"}
        every_key = {key: v for params in defaults.values() for key, v in params.items()}
        for name, cls in PROBLEMS.items():
            for key, value in every_key.items():
                cfg = _base_config(tmp_path, problem=name, problem_params={key: value})
                params = load_config(_write(tmp_path, cfg))["problem_params"]
                if key in defaults[cls]:
                    observation_model(name, params, 0)
                else:
                    with pytest.raises(TypeError, match=key):
                        observation_model(name, params, 0)


class TestSweep:
    def _sweep_config(self, tmp_path):
        return _base_config(
            tmp_path,
            methods=[
                {"mode": "root", "surrogate": "stochastic", "acq": "ei", "rss": True},
                {"mode": "min", "surrogate": "stochastic", "acq": "ei", "rss": False},
            ],
            macro_reps=2,
            output={
                "long": str(tmp_path / "long.csv"),
                "aggregate": str(tmp_path / "agg.csv"),
            },
        )

    def test_writes_long_and_aggregate(self, tmp_path):
        cfg = self._sweep_config(tmp_path)
        assert main(["sweep", _write(tmp_path, cfg)]) == EXIT_OK

        with open(cfg["output"]["long"]) as fh:
            long_rows = list(csv.DictReader(fh))
        assert len(long_rows) == 2 * 2 * (BUDGET + 1)

        with open(cfg["output"]["aggregate"]) as fh:
            agg_rows = list(csv.DictReader(fh))
        assert len(agg_rows) == 2 * (BUDGET + 1)
        by_key = {}
        for row in long_rows:
            key = (row["method"], row["iter"])
            by_key.setdefault(key, []).append(float(row["post_mean"]))
        for row in agg_rows:
            want = np.mean(by_key[(row["method"], row["iter"])])
            assert float(row["mean"]) == pytest.approx(want)

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = self._sweep_config(tmp_path)
        path = _write(tmp_path, cfg)
        monkeypatch.setenv("ROOTCAL_WORKERS", "1")
        assert main(["sweep", path]) == EXIT_OK
        serial = (tmp_path / "long.csv").read_bytes()
        monkeypatch.setenv("ROOTCAL_WORKERS", "2")
        assert main(["sweep", path]) == EXIT_OK
        assert (tmp_path / "long.csv").read_bytes() == serial

    def test_failed_run_fails_the_sweep(self, tmp_path, monkeypatch, capsys):
        from rootcal import engine

        calibrate = engine.run_calibration

        def fail_rep1(sim, config, stream_id=0):
            if stream_id == 1:
                raise FloatingPointError("boom")
            return calibrate(sim, config, stream_id)

        monkeypatch.setattr(engine, "run_calibration", fail_rep1)
        monkeypatch.setenv("ROOTCAL_WORKERS", "1")
        cfg = self._sweep_config(tmp_path)
        assert main(["sweep", _write(tmp_path, cfg)]) == EXIT_RUNTIME
        assert "root-ei-sk-rss/rep1: boom" in capsys.readouterr().err
        assert not (tmp_path / "long.csv").exists()
        assert not (tmp_path / "agg.csv").exists()

    def test_requires_macro_reps(self, tmp_path):
        cfg = self._sweep_config(tmp_path)
        del cfg["macro_reps"]
        assert main(["sweep", _write(tmp_path, cfg)]) == EXIT_CONFIG

    def test_rejects_duplicate_methods(self, tmp_path):
        cfg = self._sweep_config(tmp_path)
        cfg["methods"][1] = dict(cfg["methods"][0])
        assert main(["sweep", _write(tmp_path, cfg)]) == EXIT_CONFIG

    def test_methods_sharing_a_label_rejected_naming_it(self, tmp_path, capsys):
        # two identical methods would share rows
        cfg = self._sweep_config(tmp_path)
        cfg["methods"] = [{"mode": "min", "surrogate": "deterministic", "acq": "lcb",
                           "rss": False} for _ in range(2)]
        assert main(["sweep", _write(tmp_path, cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert ("config error: methods must be distinct: 2 are labeled min-lcb-krig"
                in captured.err)
        assert captured.out == ""
        assert not (tmp_path / "long.csv").exists()
        assert not (tmp_path / "agg.csv").exists()

    def test_lcb_at_two_kappas_writes_two_methods_rows(self, tmp_path):
        # the label names a kappa other than the default, so the two are not merged
        cfg = self._sweep_config(tmp_path)
        cfg["methods"] = [{"mode": "min", "surrogate": "deterministic", "acq": "lcb",
                           "rss": False, "kappa": kappa} for kappa in (1, 3)]
        assert main(["sweep", _write(tmp_path, cfg)]) == EXIT_OK
        with open(cfg["output"]["long"]) as fh:
            methods = [row["method"] for row in csv.DictReader(fh)]
        assert sorted(set(methods)) == ["min-lcb-kappa3.0-krig", "min-lcb-krig"]
        assert all(methods.count(m) == 2 * (BUDGET + 1) for m in set(methods))

    @pytest.mark.parametrize("workers", ["abc", "0", "-3", "1.5", ""])
    def test_rejects_bad_worker_count_before_running(self, tmp_path, monkeypatch, capsys,
                                                     workers):
        from rootcal import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "macro_sweep", no_sweep)
        monkeypatch.setenv("ROOTCAL_WORKERS", workers)
        cfg = self._sweep_config(tmp_path)
        assert main(["sweep", _write(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"ROOTCAL_WORKERS must be an integer >= 1, got {workers!r}" in \
            capsys.readouterr().err
        assert not (tmp_path / "long.csv").exists()
        assert not (tmp_path / "agg.csv").exists()


class TestValidate:
    def test_passes_and_prints_per_acquisition(self, capsys):
        assert main(["validate", "--cases", "3", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 6
        assert all("max deviation" in line for line in out)

    def test_corrupt_negative_control_fails(self, capsys, monkeypatch):
        from rootcal import engine

        exact = engine.acq_gradient
        monkeypatch.setattr(engine, "acq_gradient",
                            lambda *args: exact(*args) + 1.0)
        code = main(["validate", "--cases", "2"])
        assert code == EXIT_VALIDATION
        capsys.readouterr()

    def test_rejects_zero_cases(self):
        assert main(["validate", "--cases", "0"]) == EXIT_CONFIG


class TestCountAndSeedFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["validate", "--cases", "abc"], "--cases"),
        (["validate", "--seed", "-1"], "--seed"),
        (["rootless", "--eps", "1", "--n-seeds", "0"], "--n-seeds"),
        (["rootless", "--eps", "1", "--n-seeds", "-1"], "--n-seeds"),
        (["rootless", "--eps", "1", "--seed", "-1"], "--seed"),
        (["diagnose", "--problem", "mm1", "--theta", "7", "--reps", "0"], "--reps"),
        (["diagnose", "--problem", "mm1", "--theta", "7", "--reps", "-2"], "--reps"),
        (["diagnose", "--problem", "mm1", "--theta", "7", "--seed", "-1"], "--seed"),
    ])
    def test_rejected_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "gaps.csv"
        if argv[0] == "rootless":
            argv = argv + ["--output", str(out)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"argument {flag}: must be an integer >= " in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_smallest_values_accepted(self, tmp_path, capsys):
        assert main(["validate", "--cases", "1", "--seed", "0"]) == EXIT_OK
        assert main(["diagnose", "--problem", "mm1", "--theta", "7", "--reps", "1",
                     "--seed", "0"]) == EXIT_OK
        capsys.readouterr()


class TestRootless:
    def test_writes_gap_table(self, tmp_path):
        out = tmp_path / "gaps.csv"
        code = main([
            "rootless", "--eps", "10", "--design-sizes", "5,9",
            "--n-seeds", "2", "--output", str(out),
        ])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["design_size"] for r in rows] == ["5", "9"]
        for row in rows:
            for col in ("lcb_diff", "pi_diff", "ei_diff"):
                float(row[col])

    def test_rejects_bad_eps_and_sizes(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["rootless", "--eps", "0", "--output", out]) == EXIT_CONFIG
        for eps in ("nan", "inf"):
            assert main(["rootless", "--eps", eps, "--output", out]) == EXIT_CONFIG
        capsys.readouterr()
        assert main(["rootless", "--eps", "1", "--design-sizes", "1,5",
                     "--output", out]) == EXIT_CONFIG
        assert ("argument --design-sizes: must be an integer >= 2, got '1'"
                in capsys.readouterr().err)
        assert main(["rootless", "--eps", "1", "--design-sizes", "a,b",
                     "--output", out]) == EXIT_CONFIG

    @pytest.mark.parametrize("sizes", [",", "", ",,"])
    def test_empty_design_sizes_rejected_naming_the_flag(self, tmp_path, capsys, sizes):
        out = tmp_path / "gaps.csv"
        assert main(["rootless", "--eps", "1", "--design-sizes", sizes,
                     "--output", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "argument --design-sizes: must be comma-separated integers" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestDiagnose:
    def test_prints_chain_report(self, capsys):
        code = main(["diagnose", "--problem", "rootless", "--theta", "0.5",
                     "--reps", "20", "--eps", "0.5"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["problem"] == "rootless"
        assert report["theta"] == [0.5]
        assert len(report["chain"]) == 3
        assert report["chain_ordered"]

    @pytest.mark.parametrize("theta", [",", "", "a"])
    def test_rejects_theta_not_a_list_of_numbers_naming_the_flag(self, capsys, theta):
        assert main(["diagnose", "--problem", "mm1", "--theta", theta]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "argument --theta: must be comma-separated numbers" in captured.err
        assert captured.out == ""

    def test_rejects_wrong_dimension(self, capsys):
        code = main(["diagnose", "--problem", "himmelblau2d", "--theta", "0.5"])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_rejects_param_the_problem_does_not_take(self, capsys):
        code = main(["diagnose", "--problem", "mm1", "--theta", "5", "--eps", "0.1"])
        assert code == EXIT_CONFIG
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_rejects_non_finite_eps_naming_it(self, capsys, eps):
        code = main(["diagnose", "--problem", "rootless", "--theta", "0.5",
                     "--eps", eps])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "eps must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("theta", ["1.5", "nan", "-inf"])
    def test_rejects_theta_outside_box(self, capsys, theta):
        code = main(["diagnose", "--problem", "sir", "--theta", theta])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().out == ""
