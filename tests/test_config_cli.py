"""Parameter schemas, config parsing, and the command-line harness."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import forensic_bias
from forensic_bias import presets
from forensic_bias.cli import _COMMANDS, main, parse_args
from forensic_bias.config import ConfigError, parse_config_text, parse_set_args
from forensic_bias.feedback import FeedbackParams
from forensic_bias.fingerprints import ImputationSimParams
from forensic_bias.outputs import sha256_file
from forensic_bias.presets import PRESETS, get_preset, resolve_and_build, run_preset
from forensic_bias.propagation import ChainParams
from forensic_bias.seeding import validate_seed

from test_preset_pins import PINS


class TestConfigText:
    def test_values_comments_blanks(self):
        text = "# a comment\n\nn_obs = 50\nalpha_true=0.4  # inline\n"
        assert parse_config_text(text) == {"n_obs": "50", "alpha_true": "0.4"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("n_obs 50")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a=1\na=2")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("=5")

    def test_set_args(self):
        assert parse_set_args(["a=1", "b = x", "a=2"]) == {"a": "2", "b": "x"}
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            parse_set_args(["oops"])


class TestSchemas:
    def test_unknown_key_names_itself(self):
        schema = PRESETS["feedback"].schema
        with pytest.raises(ConfigError, match=r"unknown parameter.*bogus"):
            schema.resolve({"bogus": "1"})

    def test_type_mismatch_names_parameter(self):
        schema = PRESETS["feedback"].schema
        with pytest.raises(ConfigError, match="n_obs.*expected int"):
            schema.resolve({"n_obs": "many"})

    @pytest.mark.parametrize(
        "name, record",
        [("delta-impute", ImputationSimParams()), ("feedback", FeedbackParams()), ("propagation", ChainParams())],
    )
    def test_monte_carlo_defaults_are_the_records_defaults(self, name, record):
        # A study quoted at a record's defaults is the preset's default run.
        assert resolve_and_build(PRESETS[name], {})[1] == record

    def test_range_violation_names_parameter_and_bound(self):
        # The schema only types the value; the build step's library call refuses it.
        assert PRESETS["race"].schema.resolve({"trait_prob": "0.9"})["trait_prob"] == 0.9
        message = r"^trait_prob must lie strictly inside \(0, 0.5\) .*, got 0.9 \(at trait_prob=0.9, "
        with pytest.raises(ConfigError, match=message):
            resolve_and_build(PRESETS["race"], {"trait_prob": "0.9"})

    def test_defaults_echoed(self):
        params = PRESETS["propagation"].schema.resolve({})
        assert params["n_runs"] == 1000
        assert params["k"] == 5
        assert params["missing_share"] == "random"

    def test_bool_parsing(self):
        schema = PRESETS["propagation"].schema
        assert schema.resolve({"same_source": "false"})["same_source"] is False
        assert schema.resolve({"same_source": "YES"})["same_source"] is True
        with pytest.raises(ConfigError, match="same_source"):
            schema.resolve({"same_source": "perhaps"})

    def test_every_preset_resolves_its_defaults(self):
        for name, preset in PRESETS.items():
            params = preset.schema.resolve({})
            assert set(params) == {p.name for p in preset.schema.params}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            get_preset("nope")


class TestSeed:
    def test_valid_range(self):
        assert validate_seed(0) == 0
        assert validate_seed(2**64 - 1) == 2**64 - 1

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.0, "7", True])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_seed(bad)


class TestRunPreset:
    def test_manifest_checksums_match_files(self, tmp_path):
        manifest = run_preset("mayfield", 5, out_dir=tmp_path)
        assert set(manifest.artifacts) == {"panel.csv", "report.json"}
        for name, digest in manifest.artifacts.items():
            assert sha256_file(tmp_path / name) == digest
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["preset"] == "mayfield"
        assert on_disk["seed"] == 5
        assert on_disk["parameters"] == {}
        assert "threads" not in on_disk
        assert on_disk["tool_version"] == forensic_bias.__version__

    def test_package_version_matches_pyproject(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^version = "([^"]+)"$', project, re.MULTILINE).group(1) == forensic_bias.__version__

    def test_cli_import_leaves_out_importlib_metadata(self):
        # The tool version is the package's own constant, so no process
        # pays for importlib.metadata (and the email and socket modules it pulls in).
        probe = "import sys, forensic_bias.cli; print('importlib.metadata' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(forensic_bias.__file__).parents[1])},
        )
        assert done.stdout.strip() == "False"

    def test_preset_runs_leave_out_numpy_ma(self, tmp_path):
        # np.percentile, np.median and np.unique (without return_inverse)
        # import all of numpy.ma on first use, ≈17 ms with numpy 2.4 on a
        # 2-core host.  No run imports statistics either: the averages are
        # math.fsum over the count.  A fresh process, because other tests
        # call np.percentile in this one.
        probe = (
            "import sys, numpy\n"
            "bare = 'numpy.ma' in sys.modules\n"
            "from forensic_bias.cli import main\n"
            "from forensic_bias.presets import PRESETS\n"
            "for name in sorted(PRESETS):\n"
            "    assert main(['run', '--preset', name, '--seed', '7', '--out', f'{sys.argv[1]}/{name}']) == 0\n"
            "print('statistics' in sys.modules)\n"
            "print(bare, 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(forensic_bias.__file__).parents[1])},
        )
        statistics_loaded, numpy_ma = done.stdout.splitlines()[-2:]
        assert statistics_loaded == "False"
        bare, after = numpy_ma.split()
        if bare == "True":
            pytest.skip("a bare import numpy already loads numpy.ma (numpy 1.x)")
        assert after == "False"

    def test_propagation_run_leaves_out_numpy_random(self, tmp_path):
        # seeding.substream_uniforms redoes numpy's SeedSequence and PCG64
        # on arrays, so a propagation run never imports numpy.random, which
        # would raise its peak memory and slow its first run.  A fresh
        # process, because other tests draw from numpy.random in this one.
        probe = (
            "import sys, numpy\n"
            "bare = 'numpy.random' in sys.modules\n"
            "from forensic_bias.cli import main\n"
            "assert main(['run', '--preset', 'propagation', '--seed', '7', '--out', sys.argv[1]]) == 0\n"
            "print(bare, 'numpy.random' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "propagation")],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(forensic_bias.__file__).parents[1])},
        )
        bare, after = done.stdout.splitlines()[-1].split()
        if bare == "True":
            pytest.skip("a bare import numpy already loads numpy.random (numpy 1.x)")
        assert after == "False"

    def test_closed_form_commands_leave_out_numpy(self, tmp_path):
        # numpy is bound on first use, so importing the CLI, listing the
        # presets, running and verifying the six closed-form ones, and
        # validating any config never load it; ≈120 ms of set-up with numpy
        # 2.4.  A delta-impute run in the same process then loads it and
        # must still write its pinned bytes.  Reading the command line, help
        # included, loads neither argparse nor the gettext and locale
        # modules argparse pulls in.  A fresh process, because this one has
        # numpy loaded.
        config = tmp_path / "delta.txt"
        config.write_text("n_reps=400\n")
        probe = (
            "import contextlib, io, sys\n"
            "from forensic_bias.cli import main\n"
            "out, config = sys.argv[1:]\n"
            "steps = {'import': 'numpy' in sys.modules}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['list-presets']) == 0\n"
            "    steps['list-presets'] = 'numpy' in sys.modules\n"
            "    for name in ('mayfield', 'race', 'relevance', 'imputation-table', 'imputation-grid', 'trier'):\n"
            "        assert main(['run', '--preset', name, '--seed', '7', '--out', f'{out}/{name}']) == 0\n"
            "        assert main(['verify', f'{out}/{name}']) == 0\n"
            "        steps[name] = 'numpy' in sys.modules\n"
            "    assert main(['validate', '--preset', 'delta-impute', config]) == 0\n"
            "    steps['validate'] = 'numpy' in sys.modules\n"
            "    with contextlib.suppress(SystemExit):\n"
            "        main(['run', '-h'])\n"
            "    parsers = [name for name in ('argparse', 'gettext', 'locale') if name in sys.modules]\n"
            "    assert main(['run', '--preset', 'delta-impute', '--seed', '7', '--config', config, '--out', f'{out}/delta']) == 0\n"
            "print(parsers)\n"
            "print({step: loaded for step, loaded in steps.items() if loaded})\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path), str(config)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(forensic_bias.__file__).parents[1])},
        )
        assert done.stdout.splitlines()[-2:] == ["[]", "{}"]
        estimate = (tmp_path / "delta" / "estimate.json").read_bytes()
        assert hashlib.sha256(estimate).hexdigest() == PINS[("delta-impute", "small")]["estimate.json"]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_runner_is_pure(self, name, tmp_path, monkeypatch):
        def no_write(*args):
            raise AssertionError("a runner called a writer")

        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        params, record = resolve_and_build(get_preset(name), {})
        with monkeypatch.context() as patch:
            patch.setattr(presets, "write_csv", no_write)
            patch.setattr(presets, "write_json", no_write)
            artifacts = PRESETS[name].run(params, record, 7)
        assert list(cwd.iterdir()) == []
        out = tmp_path / "out"
        run_preset(name, 7, out_dir=out)
        assert set(artifacts) == {p.name for p in out.iterdir()} - {"manifest.json"}

    def test_mayfield_average_in_report(self, tmp_path):
        run_preset("mayfield", 5, out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["average_delta"] == 1.7

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_preset("feedback", 9, {"n_seeds": 20, "n_obs": 30}, out_dir=a)
        run_preset("feedback", 9, {"n_seeds": 20, "n_obs": 30}, out_dir=b)
        for name in ("trajectory.csv", "gaps.csv", "aggregate.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_preset("feedback", 1, {"n_seeds": 20}, out_dir=a)
        run_preset("feedback", 2, {"n_seeds": 20}, out_dir=b)
        assert (a / "gaps.csv").read_bytes() != (b / "gaps.csv").read_bytes()

    def test_overrides_echoed_in_manifest(self, tmp_path):
        manifest = run_preset("feedback", 9, {"n_seeds": "25"}, out_dir=tmp_path)
        assert manifest.parameters["n_seeds"] == 25
        assert manifest.parameters["n_obs"] == 100  # default still present

    def test_imputation_table_golden_bytes(self, tmp_path):
        run_preset("imputation-table", 0, out_dir=tmp_path)
        expected = (
            "print,cells,n_correspondences,n_matches,n_missing,decision\r\n"
            "true_mark,.m.mm.,4,2,0,Exclusion\r\n"
            "observed,??.?m.,2,1,3,Exclusion\r\n"
            "imputed,...mm.,5,2,0,Exclusion\r\n"
        )
        assert (tmp_path / "tables.csv").read_bytes().decode("utf-8") == expected

    def test_relevance_golden_bytes(self, tmp_path):
        run_preset("relevance", 0, out_dir=tmp_path)
        expected = (
            "fixture,verdict,max_discrepancy\r\n"
            "criminal_history_irrelevant,TaskIrrelevant,0.0\r\n"
            "tool_shape_no_guilt_link,TaskRelevant,0.105\r\n"
            "tool_shape_relevant,TaskRelevant,0.11170212765957446\r\n"
        )
        assert (tmp_path / "verdicts.csv").read_bytes().decode("utf-8") == expected

    def test_imputation_grid_outputs(self, tmp_path):
        run_preset("imputation-grid", 0, out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["true_matches"] == 5
        assert report["observed_matches"] == 3
        assert report["imputed_matches"] == 8
        assert report["decision_flipped"] is True
        assert (tmp_path / "observed_y.txt").read_text().count("?") == 13

    def test_cross_parameter_check_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="p_diff"):
            run_preset(
                "delta-impute", 0, {"p_same": "0.2", "p_diff": "0.4"}, out_dir=tmp_path
            )

    def test_delta_impute_reports_exact_mean_and_error_bar(self, tmp_path):
        run_preset("delta-impute", 7, {"n_reps": "2000"}, out_dir=tmp_path)
        est = json.loads((tmp_path / "estimate.json").read_text())
        assert est["exact_mean_delta"] == pytest.approx(1.25**50, rel=1e-12)
        assert 0 < est["mc_standard_error"] < est["mean_delta"]
        assert abs(est["mean_delta"] - est["exact_mean_delta"]) < 4 * est["mc_standard_error"]
        # The exact error bar: 0.1697 at 10,000 replicates, sqrt(5) times that at 2,000.
        assert est["exact_relative_standard_error"] == pytest.approx(0.16970627266839 * 5**0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "overrides, relative_se",
        [
            ({}, 0.16970627266839),
            ({"mask_mode": "exact"}, 0.0),
            ({"missing_share": "0"}, 0.0),
            ({"rows": "40", "cols": "40"}, 2.368198687828e37),
            ({"rows": "56", "cols": "56"}, 1.492311709951e75),
            # Beyond float range: the Monte Carlo mean reads 4.4e5 against 6.8e298.
            ({"rows": "1", "cols": "1000", "p_same": "0.99", "p_diff": "0.0001", "missing_share": "0.0001"}, None),
        ],
        ids=["defaults", "exact", "share-0", "40x40", "56x56", "beyond-float"],
    )
    def test_delta_impute_exact_relative_standard_error(self, overrides, relative_se, tmp_path):
        # 100 replicates: the relative error bar is 10 times that at 10,000.
        run_preset("delta-impute", 7, {**overrides, "n_reps": "100"}, out_dir=tmp_path)
        est = json.loads((tmp_path / "estimate.json").read_text())
        if relative_se is None:
            assert est["exact_relative_standard_error"] is None
        else:
            assert est["exact_relative_standard_error"] == pytest.approx(10 * relative_se, rel=1e-11)

    def test_delta_impute_mean_stays_finite(self, tmp_path):
        # Each draw is 2**1021; the plain sum of the draws overflows.
        overrides = {"rows": "1", "cols": "1021", "missing_share": "1", "n_reps": "10"}
        run_preset("delta-impute", 7, overrides, out_dir=tmp_path)
        est = json.loads((tmp_path / "estimate.json").read_text())
        assert est["mean_delta"] == pytest.approx(2.0**1021, rel=1e-12)
        assert est["exact_mean_delta"] == pytest.approx(2.0**1021, rel=1e-12)
        assert est["exact_relative_standard_error"] == 0.0

    def test_trier_report(self, tmp_path):
        run_preset("trier", 0, out_dir=tmp_path)
        report = json.loads((tmp_path / "case_report.json").read_text())
        assert report["neutral_guilt_odds"] == pytest.approx(3.0, abs=1e-12)
        assert report["systemic_bias_ratio"] == pytest.approx(3.0, rel=1e-10)

    def test_feedback_clamp_warns_once_per_run(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_preset(
                "feedback",
                7,
                {"trait_skew": "20", "n_seeds": "30", "n_obs": "20"},
                out_dir=tmp_path,
            )
        clamps = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(clamps) == 1
        assert "clamping" in str(clamps[0].message)

    def test_feedback_clamp_warns_once_under_validate(self, tmp_path, capsys):
        # validate builds the record that run builds, so it warns as run does.
        # main sets only the warning format, and puts the old one back.
        config = tmp_path / "clamped.txt"
        config.write_text("preset=feedback\ntrait_skew=20\n")
        before = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", str(config)]) == 0
        assert [str(w.message).count("clamping") for w in caught] == [1]
        assert warnings.formatwarning is before

    def test_clamp_warning_is_one_line_on_the_command_line(self, tmp_path):
        # The line names the user's settings, not the program line that warned.
        config = tmp_path / "clamped.txt"
        config.write_text("preset=feedback\ntrait_skew=3\nalpha_true=0.4\n")
        run = ["run", "--preset", "feedback", "--seed", "7", "--config", str(config), "--out", str(tmp_path / "out")]
        for argv in (run, ["validate", str(config)]):
            done = subprocess.run(
                [sys.executable, "-W", "default", "-m", "forensic_bias.cli", *argv],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(Path(forensic_bias.__file__).parents[1])},
            )
            assert done.stderr == (
                "warning: trait_skew * alpha_true = 1.2000000000000002 exceeds 1; "
                "clamping the wrongful-case trait rate to 1\n"
            ), argv

    def test_validate_of_a_long_chain_leaves_its_per_analyst_terms_unbuilt(self, tmp_path, capsys):
        # ChainParams builds its k conformity logs on first use, so building
        # the record, as validate does, costs O(1) in k.
        params, chain = resolve_and_build(get_preset("propagation"), {"k": "5000000", "n_runs": "1"})
        assert chain.k == 5_000_000 and "log_tilde_peer" not in vars(chain)
        config = tmp_path / "long.txt"
        config.write_text("preset=propagation\nk=5000000\nn_runs=1\n")
        started = time.perf_counter()
        assert main(["validate", str(config)]) == 0
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("overrides", [{}, {"alpha_true": "0.3", "wrongful_rate": "0.4", "n_obs": "7"}])
    def test_feedback_gaps_csv_holds_the_means(self, tmp_path, overrides):
        # gaps.csv holds each replicate's two final means; aggregate.json's
        # mean gaps are the mean of |column - alpha_true| over those columns.
        run_preset("feedback", 5, {"n_seeds": "60", **overrides}, out_dir=tmp_path)
        with open(tmp_path / "gaps.csv", newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert header == ["seed", "truthful_final_mean", "biased_final_mean"]
        assert [int(row[0]) for row in rows] == list(range(60))
        aggregate = json.loads((tmp_path / "aggregate.json").read_text())
        alpha_true = aggregate["alpha_true"]
        for i, regime in enumerate(("truthful", "biased"), start=1):
            column = np.array([float(row[i]) for row in rows])
            assert aggregate[f"mean_final_{regime}"] == float(np.mean(column))
            assert aggregate[f"mean_gap_{regime}"] == float(np.mean(np.abs(column - alpha_true)))


# A complete run command; OUT stands for the output directory.
RUN = ["run", "--preset", "mayfield", "--seed", "7", "--out", "OUT"]


class TestCli:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", "--preset", "mayfield", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "manifest.json").exists()
        assert "manifest.json" in capsys.readouterr().out

    def test_config_file_plus_set_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_seeds=12\nn_obs=40\n")
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--preset",
                "feedback",
                "--seed",
                "4",
                "--config",
                str(cfg),
                "--set",
                "n_obs=60",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["n_seeds"] == 12
        assert manifest["parameters"]["n_obs"] == 60  # --set wins

    def test_threads_do_not_change_bytes(self, tmp_path):
        outs = []
        for threads, sub in (("1", "t1"), ("3", "t3")):
            out = tmp_path / sub
            code = main(
                [
                    "run",
                    "--preset",
                    "propagation",
                    "--seed",
                    "11",
                    "--set",
                    "n_runs=30",
                    "--threads",
                    threads,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for name in ("results.csv", "summary.csv", "report.json", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_set_values_do_not_leak_into_the_next_call(self, tmp_path):
        base = ["run", "--preset", "race", "--seed", "1"]
        assert main([*base, "--set", "trait_prob=0.3", "--set", "pool_n=4", "--out", str(tmp_path / "a")]) == 0
        assert main([*base, "--out", str(tmp_path / "b")]) == 0
        for sub, expected in (("a", {"trait_prob": 0.3, "pool_n": 4}), ("b", {"trait_prob": 0.15, "pool_n": 10})):
            manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
            assert {k: manifest["parameters"][k] for k in expected} == expected

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        code = main(["run", "--preset", "nope", "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_bad_override_exit_2_names_parameter(self, tmp_path, capsys):
        for preset, setting in (
            ("race", "trait_prob=0.9"),
            ("trier", "stream_lrs=2,nan,5"),
            ("trier", "stream_lrs=2,inf,5"),
            ("trier", "stream_lrs=1e400,3,5"),
            ("trier", "betas=1.5,nan,2.0"),
            ("trier", "betas=1.5,-inf,2.0"),
            ("trier", "context_lr=inf"),
            ("feedback", "trait_skew=inf"),
            ("feedback", "prior_a=inf"),
            ("race", "lr_true=1e400"),
            ("relevance", "tolerance=nan"),
        ):
            code = main(
                [
                    "run",
                    "--preset",
                    preset,
                    "--seed",
                    "1",
                    "--set",
                    setting,
                    "--out",
                    str(tmp_path / "x"),
                ]
            )
            assert code == 2, setting
            assert setting.split("=")[0] in capsys.readouterr().err, setting

    @pytest.mark.parametrize("size", ["60", "80"])
    def test_delta_impute_overflow_is_config_error(self, size, tmp_path, capsys):
        args = ["--set", f"rows={size}", "--set", f"cols={size}", "--out", str(tmp_path / "x")]
        code = main(["run", "--preset", "delta-impute", "--seed", "7", *args])
        assert code == 2
        err = capsys.readouterr().err
        assert "float range" in err
        for name in ("rows", "cols", "missing_share", "p_same", "p_diff"):
            assert f"{name}=" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "settings",
        [
            ("stream_lrs=1e200,1e200,1e200", "betas=1e200,1e200,1e200"),
            ("stream_lrs=1e308,1e308,1e308",),
            ("stream_lrs=1e300,1e300,1e300", "betas=1,1,1"),
            ("stream_lrs=1e-300,1e-300,1", "betas=1e300,1e300,1"),
            ("context_lr=1e308",),
        ],
        ids=["reported-lr", "reported-lr-at-beta-1.5", "guilt-odds", "systemic-ratio", "context"],
    )
    def test_trier_overflow_is_config_error(self, settings, tmp_path, capsys):
        args = [arg for setting in settings for arg in ("--set", setting)]
        code = main(["run", "--preset", "trier", "--seed", "1", *args, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "float range" in err
        for name in ("pool_n", "stream_lrs", "betas", "context_lr"):
            assert f"{name}=" in err
        assert not (tmp_path / "x").exists()

    def test_race_overflow_is_config_error(self, tmp_path, capsys):
        # Even prior odds and a doubled trait tilt put 1e308 past float range.
        args = ["--set", "pool_n=1", "--set", "lr_true=1e308", "--out", str(tmp_path / "x")]
        code = main(["run", "--preset", "race", "--seed", "1", *args])
        assert code == 2
        err = capsys.readouterr().err
        assert "float range" in err
        for name in ("trait_prob", "pool_n", "lr_true"):
            assert f"{name}=" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("preset", ["race", "propagation"])
    def test_trait_prob_an_ulp_below_half_runs(self, preset, tmp_path):
        # The absent-trait factor (1-2p)/(1-p) is 2**-52 / (1 + 2**-53) there, not 0.
        p = math.nextafter(0.5, 0.0)
        out = tmp_path / preset
        argv = ["run", "--preset", preset, "--seed", "7", "--set", f"trait_prob={p!r}", "--out", str(out)]
        if preset == "propagation":
            argv += ["--set", "n_runs=20"]
        assert main(argv) == 0
        assert main(["verify", str(out)]) == 0
        if preset == "race":
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            exact = (1 - 2 * Fraction(p)) / (1 - Fraction(p))
            assert report["delta_absent"] == pytest.approx(float(exact), rel=1e-14)

    def test_numeric_runtime_failure_exit_1_names_module(self, tmp_path, capsys, monkeypatch):
        # A stand-in failure: this checks how the CLI reports one, not where it arises.
        def overflowing_average():
            raise OverflowError("math range error")

        monkeypatch.setattr(presets, "mayfield_average", overflowing_average)
        code = main(["run", "--preset", "mayfield", "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in forensic_bias." in err

    @pytest.mark.parametrize("out", ["file", "file/run"], ids=["regular-file", "under-a-file"])
    def test_out_not_a_directory_exit_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("x\n")
        code = main(["run", "--preset", "mayfield", "--seed", "1", "--out", str(tmp_path / out)])
        assert code == 2
        assert "--out" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "x\n"

    def test_failed_rerun_leaves_the_previous_run(self, tmp_path, capsys):
        out = tmp_path / "trier"
        argv = ["run", "--preset", "trier", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main([*argv, "--set", "stream_lrs=1e308,1e308,1e308"]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(["verify", str(out)]) == 0

    def test_failed_write_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "propagation"
        argv = ["run", "--preset", "propagation", "--seed", "7", "--set", "n_runs=20", "--out", str(out)]
        assert main(argv) == 0
        write_csv, written = presets.write_csv, []

        def fail_second_write(path, columns):
            written.append(path.name)
            if len(written) == 2:
                raise OSError(28, "No space left on device")
            write_csv(path, columns)

        monkeypatch.setattr(presets, "write_csv", fail_second_write)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'summary.csv'}: No space left on device; {out} now holds no manifest\n"
        assert written == ["results.csv", "summary.csv"]
        assert not (out / "manifest.json").exists()
        assert main(["verify", str(out)]) == 2

    @pytest.mark.parametrize("stage", ["runner", "writer", "runner-on-a-new-out"])
    def test_out_of_memory_is_one_line_naming_the_sizes(self, tmp_path, capsys, monkeypatch, stage):
        out = tmp_path / "propagation"
        argv = ["run", "--preset", "propagation", "--seed", "7", "--set", "n_runs=20", "--out", str(out)]
        if stage != "runner-on-a-new-out":
            assert main(argv) == 0

        def out_of_memory(*args):
            raise MemoryError

        if stage.startswith("runner"):
            preset = PRESETS["propagation"]
            monkeypatch.setitem(PRESETS, "propagation", presets.Preset(preset.schema, out_of_memory))
            state, verify_code = ("is left as it was", 0) if stage == "runner" else ("was not created", 2)
        else:
            monkeypatch.setattr(presets, "write_csv", out_of_memory)
            state, verify_code = "holds no manifest", 2
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: out of memory running preset 'propagation' at n_runs=20, k=5; {out} {state}\n"
        assert main(["verify", str(out)]) == verify_code

    @pytest.mark.parametrize("key", ["same_source=false", "expected_minutiae=15"])
    def test_removed_delta_impute_keys_exit_2(self, key, tmp_path, capsys):
        code = main(["run", "--preset", "delta-impute", "--seed", "7", "--set", key, "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"unknown parameter(s) [{key.split('=')[0]!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize("share", ["0", "1"])
    def test_degenerate_share_on_a_huge_grid_is_quick(self, share, tmp_path, capsys):
        # 10**10 cells: the binomial pmf alone would take 75 GiB.
        args = ["--set", "rows=100000", "--set", "cols=100000", "--set", f"missing_share={share}"]
        if share == "1":  # keeps r**(10**10) in float range
            args += ["--set", "p_same=0.5", "--set", "p_diff=0.49999999999"]
        started = time.perf_counter()
        code = main(["run", "--preset", "delta-impute", "--seed", "7", *args, "--out", str(tmp_path / "x")])
        assert code == 0
        assert time.perf_counter() - started < 1.0
        est = json.loads((tmp_path / "x" / "estimate.json").read_text())
        # M is fixed, so every draw, quantile and mean is the one value r**M.
        values = {est[k] for k in ("mean_delta", "q025", "median", "q975", "exact_q025", "exact_median", "exact_q975")}
        assert len(values) == 1 and est["exact_relative_standard_error"] == 0.0
        assert main(["verify", str(tmp_path / "x")]) == 0

    def test_tiny_share_on_a_huge_grid_is_quick(self, tmp_path, capsys):
        # 10**10 cells, M ~ Binomial(n, 1e-300): the pmf is built on the
        # 41 counts near the mean, not on all 10**10 + 1.
        args = ["--set", "rows=100000", "--set", "cols=100000", "--set", "missing_share=1e-300"]
        started = time.perf_counter()
        code = main(["run", "--preset", "delta-impute", "--seed", "7", *args, "--out", str(tmp_path / "x")])
        assert code == 0
        assert time.perf_counter() - started < 1.0
        est = json.loads((tmp_path / "x" / "estimate.json").read_text())
        assert est["exact_q025"] == est["exact_median"] == est["exact_q975"] == 1.0
        assert main(["verify", str(tmp_path / "x")]) == 0

    def test_too_wide_a_quantile_window_is_config_error(self, tmp_path, capsys):
        args = ["rows=1000000", "cols=1000000", "missing_share=0.5", "p_diff=0.4999999999999"]
        argv = [a for setting in args for a in ("--set", setting)]
        code = main(["run", "--preset", "delta-impute", "--seed", "7", *argv, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "exact quantiles need the pmf at" in err
        for name in ("rows", "cols", "missing_share"):
            assert f"{name}=" in err

    @pytest.mark.parametrize(
        "rows, cols, code",
        [(2**62, 4, 2), (2**62, 2, 2), (2**63 - 1, 1, 0)],
        ids=["2**64-cells", "2**63-cells", "int64-max-cells"],
    )
    def test_grid_past_int64_is_config_error(self, rows, cols, code, tmp_path, capsys):
        # The missing count is drawn in int64, so rows * cols must fit in it.
        args = ["--set", f"rows={rows}", "--set", f"cols={cols}", "--set", "missing_share=1e-300"]
        assert main(["run", "--preset", "delta-impute", "--seed", "7", *args, "--out", str(tmp_path / "x")]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert "parameters rows and cols" in err and "int64 limit 2**63 - 1" in err
            assert f"rows={rows}, cols={cols}" in err
            assert not (tmp_path / "x").exists()
        else:
            assert main(["verify", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("mode", ["per_cell", "exact"])
    def test_infinite_match_ratio_is_config_error(self, mode, tmp_path, capsys):
        # r = p_same/p_diff is inf, so r**0 would read 0 * inf = nan.
        args = ["--set", "p_diff=5e-324", "--set", "missing_share=0", "--set", f"mask_mode={mode}"]
        code = main(["run", "--preset", "delta-impute", "--seed", "7", *args, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "p_same/p_diff" in err and "float range" in err
        for name in ("p_same", "p_diff"):
            assert f"{name}=" in err
        assert not (tmp_path / "x" / "estimate.json").exists()

    def test_unremovable_manifest_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Root ignores directory permissions, so the failure is simulated.
        out = tmp_path / "mayfield"
        argv = ["run", "--preset", "mayfield", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def refuse(self, missing_ok=False):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "unlink", refuse)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: cannot remove the previous manifest: Permission denied" in err
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize(
        "settings, what",
        [
            (("p_match_diff=5e-324",), "likelihood ratio"),
            (("k=200", "p_match_diff=1e-307"), "reported odds"),
        ],
        ids=["ratio", "reported-odds"],
    )
    def test_propagation_overflow_is_config_error(self, settings, what, tmp_path, capsys):
        args = [arg for setting in settings for arg in ("--set", setting)]
        code = main(["run", "--preset", "propagation", "--seed", "7", *args, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert what in err and "float range" in err
        for name in ("p_match_same", "p_match_diff", "k"):
            assert f"{name}=" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "seed, message",
        [
            ("-4", "seed must lie in [0, 2**64 - 1], got -4"),
            (str(2**64), f"seed must lie in [0, 2**64 - 1], got {2**64}"),
            ("x", "seed must be an integer, got 'x'"),
        ],
    )
    def test_bad_seed_exit_2(self, seed, message, tmp_path, capsys):
        # --seed is checked by seeding.validate_seed, the rule run_preset applies.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "mayfield", "--seed", seed, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "x"])
    def test_bad_threads_exit_2_and_write_nothing(self, threads, tmp_path, capsys):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "mayfield", "--seed", "7", "--threads", threads, "--out", str(out)])
        assert exc.value.code == 2
        assert f"expected a positive integer, got {threads!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, command, message",
        [
            pytest.param([], None, "no command given", id="no-command"),
            pytest.param(["bogus"], None, "unknown command 'bogus'", id="unknown-command"),
            pytest.param([*RUN, "--bogus", "1"], "run", "unknown option --bogus", id="unknown-option"),
            pytest.param([*RUN, "--pre", "race"], "run", "unknown option --pre", id="prefix-abbreviation"),
            pytest.param([*RUN, "--set"], "run", "argument --set: expected one value", id="no-value"),
            pytest.param(
                ["run", "--seed", "7"],
                "run",
                "the following arguments are required: --preset, --out",
                id="missing-required",
            ),
            pytest.param([*RUN, "stray"], "run", "unrecognized arguments: stray", id="extra-positional"),
            pytest.param(["verify"], "verify", "the following arguments are required: dir", id="no-positional"),
            pytest.param(["validate", "a", "b"], "validate", "unrecognized arguments: b", id="two-positionals"),
            pytest.param(
                ["run", "--preset", "mayfield", "--seed", "x", "--out", "OUT"],
                "run",
                "argument --seed: seed must be an integer, got 'x'",
                id="bad-seed",
            ),
            pytest.param(
                [*RUN, "--threads", "0"],
                "run",
                "argument --threads: expected a positive integer, got '0'",
                id="bad-threads",
            ),
        ],
    )
    def test_usage_error_exit_2_and_write_nothing(self, argv, command, message, tmp_path, capsys):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([str(out) if arg == "OUT" else arg for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prog = "bias" if command is None else f"bias {command}"
        usage, error = captured.err.splitlines()
        assert usage.startswith(f"usage: {prog} ")
        assert error.startswith(f"{prog}: error: {message}")
        assert not out.exists()

    def test_accepted_option_forms(self, tmp_path, capsys):
        # --flag=value and --flag value; a repeated option keeps its last
        # value, --set every value in order; an option's value may start with -.
        argv = ["run", "--preset=race", "--set", "pool_n=4", "--preset", "mayfield", "--seed=7", "--set=a=b=c"]
        args = parse_args([*argv, "--out", "-x"])
        assert (args.preset, args.seed, args.set_args, args.out) == ("mayfield", 7, ["pool_n=4", "a=b=c"], Path("-x"))
        assert (args.config, args.threads) == (None, None)
        out = tmp_path / "run"
        argv = ["run", "--preset=trier", "--preset", "race", "--seed=7", "--set", "pool_n=3", "--set", "pool_n=4"]
        assert main([*argv, f"--out={out}"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["preset"], manifest["seed"], manifest["parameters"]["pool_n"]) == ("race", 7, 4)

    @pytest.mark.parametrize("command", [None, *_COMMANDS])
    def test_help_lists_every_option_and_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["-h"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command is None:
            expected = [f"  {name} " for name in _COMMANDS]
        else:
            summary, options, positionals = _COMMANDS[command]
            expected = [summary, *(f"  {dest} " for dest, _, _ in positionals)]
            expected += [f"  {flag} {metavar} " for flag, (_, _, _, _, metavar, _) in options.items()]
            expected += [text for _, _, _, _, _, text in options.values()]
        for text in expected:
            assert text in captured.out, text

    def test_list_presets_names_all(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("preset=feedback\nn_seeds=10\n")
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "OK: preset feedback" in out
        assert "n_seeds = 10" in out

    def test_validate_flag_overrides_file_preset(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("preset=feedback\n")
        assert main(["validate", str(cfg), "--preset", "mayfield"]) == 0
        assert "mayfield" in capsys.readouterr().out

    def test_validate_bad_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preset=race\ntrait_prob=2\n")
        assert main(["validate", str(cfg)]) == 2
        assert "trait_prob" in capsys.readouterr().err

    def test_validate_without_preset_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("n_seeds=10\n")
        assert main(["validate", str(cfg)]) == 2
        assert "preset" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--preset",
                "mayfield",
                "--seed",
                "1",
                "--config",
                str(tmp_path / "ghost.cfg"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def _mayfield_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--preset", "mayfield", "--seed", "3", "--out", str(out)]) == 0
        return out

    def test_verify_ok_exit_0(self, tmp_path, capsys):
        out = self._mayfield_run(tmp_path)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"ok {out / 'panel.csv'}", f"ok {out / 'report.json'}"]

    @pytest.mark.parametrize(
        "damage, line",
        [
            (lambda out: (out / "panel.csv").write_bytes(b"x"), "mismatch {out}/panel.csv"),
            (lambda out: (out / "report.json").unlink(), "missing {out}/report.json"),
            (lambda out: (out / "old.csv").write_text("stale\n"), "unlisted {out}/old.csv"),
        ],
        ids=["mismatch", "missing", "unlisted"],
    )
    def test_verify_bad_artifact_exit_1(self, tmp_path, capsys, damage, line):
        out = self._mayfield_run(tmp_path)
        damage(out)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert line.format(out=out) in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "manifest",
        [None, "{", "[]", '{"preset": "mayfield"}'],
        ids=["absent", "not-json", "not-object", "no-artifacts"],
    )
    def test_verify_unreadable_manifest_exit_2(self, tmp_path, capsys, manifest):
        out = self._mayfield_run(tmp_path)
        if manifest is None:
            (out / "manifest.json").unlink()
        else:
            (out / "manifest.json").write_text(manifest)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_verify_rejects_artifact_paths(self, tmp_path, capsys):
        out = self._mayfield_run(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["../panel.csv"] = manifest["artifacts"].pop("panel.csv")
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", str(out)]) == 2
        assert "plain file names" in capsys.readouterr().err

    def test_feedback_trajectory_layout(self, tmp_path):
        out = tmp_path / "fb"
        main(
            [
                "run",
                "--preset",
                "feedback",
                "--seed",
                "2",
                "--set",
                "n_obs=25",
                "--set",
                "n_seeds=5",
                "--out",
                str(out),
            ]
        )
        lines = (out / "trajectory.csv").read_bytes().decode("utf-8").split("\r\n")
        assert lines[0] == "step,posterior_mean,regime,seed"
        body = [ln for ln in lines[1:] if ln]
        assert len(body) == 2 * 25
        regimes = {ln.split(",")[2] for ln in body}
        assert regimes == {"truthful", "biased"}
