import csv
import json

import numpy as np
import pytest

from ebsparse.cli import (
    MalformedInput,
    RunConfig,
    _default_workers,
    build_parser,
    cmd_diagnose,
    cmd_enumerate,
    cmd_fit,
    config_from_args,
    main,
    read_csv_dataset,
)
from ebsparse.posterior import Hyperparams
from ebsparse.priors import BetaBinomialPrior, BinomialPrior, ComplexityPrior, MixturePrior


def write_toy_csv(path, seed=5, n=10, p=3, signal=2.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = signal * X[:, 0] + 0.3 * rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(p)])
        for i in range(n):
            writer.writerow([y[i], *X[i]])
    return path


class TestRunConfig:
    def test_payload_round_trip(self):
        config = RunConfig(
            command="fit", alpha=0.9, gamma=0.01, sigma2=2.5, prior="betabinom",
            iterations=700, burn_in=100, seed=3, input="data.csv",
            output="out.json", workers=4,
        )
        payload = config.payload()
        assert "workers" not in payload and "output" not in payload
        back = RunConfig.from_payload(payload, output="other.json", workers=2)
        assert back.payload() == payload

    def test_payload_survives_json(self):
        config = RunConfig(command="diagnose", alpha=0.7654321, gamma=1e-3)
        text = json.dumps(config.payload(), sort_keys=True)
        back = RunConfig.from_payload(json.loads(text))
        assert back.alpha == config.alpha
        assert back.gamma == config.gamma

    def test_validation(self):
        good = dict(command="fit")
        RunConfig(**good)
        for bad in (
            dict(command="explode"),
            dict(alpha=1.0),
            dict(alpha=0.0),
            dict(gamma=0.0),
            dict(sigma2=0.0),
            dict(sigma2="guess"),
            dict(prior="cauchy"),
            dict(a=-0.1),
            dict(c=0.0),
            dict(iterations=0),
            dict(iterations=100, burn_in=100),
            dict(preset=4),
            dict(reps=0),
            dict(workers=0),
        ):
            with pytest.raises(ValueError):
                RunConfig(**{**good, **bad})

    def test_prior_and_hyper_mapping(self):
        config = RunConfig(command="fit", alpha=0.9, gamma=0.1, a=0.2, c=2.0)
        assert config.prior_object() == ComplexityPrior(a=0.2, c=2.0)
        assert isinstance(
            RunConfig(command="fit", prior="betabinom").prior_object(), BetaBinomialPrior
        )
        assert isinstance(RunConfig(command="fit", prior="binom").prior_object(), BinomialPrior)
        mixture = RunConfig(command="fit", prior="mixture").prior_object()
        assert isinstance(mixture, MixturePrior)
        hyper = config.hyperparams(1.5)
        assert hyper == Hyperparams(power=0.9, ridge=0.1, noise=1.5)


class TestReadCsv:
    def test_round_trip(self, tmp_path):
        path = write_toy_csv(tmp_path / "toy.csv")
        names, X, y = read_csv_dataset(str(path))
        assert names == ["x1", "x2", "x3"]
        assert X.values.shape == (10, 3)
        assert y.shape == (10,)

    def test_missing_file(self):
        with pytest.raises(MalformedInput):
            read_csv_dataset("/nonexistent/nope.csv")

    def test_no_predictors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\n2.0\n")
        with pytest.raises(MalformedInput):
            read_csv_dataset(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(MalformedInput):
            read_csv_dataset(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(MalformedInput):
            read_csv_dataset(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,banana\n")
        with pytest.raises(MalformedInput):
            read_csv_dataset(str(path))

    def test_missing_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,nan\n2.0,1.0\n")
        with pytest.raises(MalformedInput):
            read_csv_dataset(str(path))

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n")
        with pytest.raises(MalformedInput):
            read_csv_dataset(str(path))


class TestFit:
    def test_selects_signal_and_matches_enumeration(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        fit_config = RunConfig(
            command="fit", input=str(data), output=str(tmp_path / "fit.json"),
            iterations=3000, seed=4,
        )
        report = cmd_fit(fit_config)
        assert report["selected_model"] == ["x1"]
        enum_config = RunConfig(
            command="enumerate", input=str(data), output=str(tmp_path / "enum.json")
        )
        exact = cmd_enumerate(enum_config)
        exact_mpm = [name for name, v in exact["inclusion"].items() if v > 0.5]
        assert report["selected_model"] == exact_mpm

    def test_report_contents(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        out = tmp_path / "fit.json"
        config = RunConfig(command="fit", input=str(data), output=str(out),
                           iterations=500, seed=1)
        report = cmd_fit(config)
        on_disk = json.loads(out.read_text())
        assert on_disk == report
        assert set(report) == {
            "config", "seed", "sigma2", "acceptance_rate", "inclusion",
            "selected_model", "beta_mean", "top_models",
        }
        assert report["config"]["command"] == "fit"
        assert "workers" not in report["config"]
        assert len(report["top_models"]) <= 20
        probs = [m["probability"] for m in report["top_models"]]
        assert probs == sorted(probs, reverse=True)
        assert report["sigma2"] > 0.0

    def test_trace_series_written(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        config = RunConfig(command="fit", input=str(data),
                           output=str(tmp_path / "fit.json"), iterations=400, seed=1)
        cmd_fit(config)
        rows = (tmp_path / "fit_trace.csv").read_text().strip().splitlines()
        assert rows[0] == "iteration,model_size"
        assert len(rows) == 401

    def test_byte_identical_reruns(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        outs = []
        for name in ("a.json", "b.json"):
            config = RunConfig(command="fit", input=str(data),
                               output=str(tmp_path / name), iterations=500, seed=7)
            cmd_fit(config)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_when_no_output(self, tmp_path, capsys):
        data = write_toy_csv(tmp_path / "toy.csv")
        code = main(["fit", "--input", str(data), "--iterations", "300", "--seed", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "selected_model" in report


class TestSimulateCommand:
    def test_worker_count_leaves_bytes_unchanged(self, tmp_path):
        base = ["simulate", "--preset", "1", "--reps", "2", "--iterations", "800",
                "--seed", "9"]
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert main(base + ["--output", str(one), "--workers", "1"]) == 0
        assert main(base + ["--output", str(two), "--workers", "2"]) == 0
        assert one.read_bytes() == two.read_bytes()
        table = (tmp_path / "one.csv").read_text().strip().splitlines()
        assert table[0].startswith("setting,p_bar_0,p_bar_1,pr_exact,pr_contain,fdr")
        assert len(table) == 2

    def test_rejects_zero_reps(self, tmp_path):
        code = main(["simulate", "--preset", "1", "--reps", "0",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2

    def test_preset_flag_required(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--reps", "2"])


class TestRerun:
    def test_reproduces_fit_bytes(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        first = tmp_path / "first.json"
        again = tmp_path / "again.json"
        assert main(["fit", "--input", str(data), "--iterations", "400",
                     "--seed", "3", "--output", str(first)]) == 0
        assert main(["rerun", str(first), "--output", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()

    def test_rejects_garbage_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["rerun", str(bad)]) == 2

    @pytest.mark.parametrize(
        "config", [{"command": "diagnose", "reps": 1, "bogus": 1}, ["diagnose", 1]]
    )
    def test_rejects_malformed_embedded_config(self, tmp_path, capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config": config}))
        assert main(["rerun", str(bad)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestDiagnoseCommand:
    def test_all_checks_pass_and_deterministic(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["diagnose", "--seed", "2", "--reps", "5"]
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["all_pass"] is True
        assert set(report["checks"]) == {
            "denominator_bound", "sparse_singular", "nested_chisq",
            "rate_factor", "concentration",
        }
        assert report["checks"]["denominator_bound"]["constant"] == pytest.approx(
            3.4538776, abs=1e-6
        )

    def test_reports_constant_for_custom_hypers(self, tmp_path):
        config = RunConfig(command="diagnose", alpha=0.8, gamma=0.2, reps=2,
                           output=str(tmp_path / "d.json"))
        report = cmd_diagnose(config)
        assert report["checks"]["denominator_bound"]["constant"] == pytest.approx(
            0.5 * np.log(1.0 + 0.8 / 0.2), rel=1e-12
        )


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "void.csv")]) == 2

    def test_numeric_failure_from_guard(self, tmp_path):
        # 25 columns over 25 rows: ~3.4e7 models, past the guard.
        rng = np.random.default_rng(0)
        path = tmp_path / "wide.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y"] + [f"x{j}" for j in range(25)])
            for row in rng.standard_normal((25, 26)):
                writer.writerow(row)
        assert main(["enumerate", "--input", str(path)]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "--alpha", "1.0"],
            ["diagnose", "--gamma", "0"],
            ["simulate", "--preset", "1", "--iterations", "100", "--burn-in", "100"],
        ],
    )
    def test_library_range_checks_exit_two(self, capsys, argv):
        assert main(argv) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--alpha", "not-a-number", "--input", "x.csv"])
        assert err.value.code == 2


class TestWorkerEnvVar:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("EBSPARSE_WORKERS", raising=False)
        assert _default_workers() == 1

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv("EBSPARSE_WORKERS", "3")
        assert _default_workers() == 3

    def test_invalid_env_is_validation_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("EBSPARSE_WORKERS", "many")
        data = write_toy_csv(tmp_path / "toy.csv")
        assert main(["fit", "--input", str(data), "--iterations", "200"]) == 2


class TestParsedConfig:
    def test_absent_flags_take_runconfig_defaults(self, monkeypatch):
        monkeypatch.delenv("EBSPARSE_WORKERS", raising=False)
        args = build_parser().parse_args(["fit", "--input", "d.csv"])
        assert config_from_args(args) == RunConfig(command="fit", input="d.csv")

    def test_estimate_flag_sets_estimate(self):
        args = build_parser().parse_args(["diagnose", "--estimate-sigma2", "--workers", "2"])
        config = config_from_args(args)
        assert config.sigma2 == "estimate"
        assert config.workers == 2

    def test_noise_flags_are_exclusive(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["diagnose", "--sigma2", "1", "--estimate-sigma2"])
        assert err.value.code == 2
