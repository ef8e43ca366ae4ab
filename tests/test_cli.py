import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ranksmooth import cli
from ranksmooth.cli import main
from ranksmooth.data import load_features_csv
from ranksmooth.encoder import encode, init_encoder, load_encoder, save_encoder
from ranksmooth.experiments import approx_error_sweep, operating_region_sweep
from ranksmooth.ranking import map_and_recall
from ranksmooth.smoothap import SmoothApConfig, batch_ap_error, batch_operating_region


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "ds.csv"
    code = main(
        [
            "gen-data",
            "--classes", "10",
            "--per-class", "8",
            "--dim", "12",
            "--noise", "0.15",
            "--signal-dim", "6",
            "--seed", "7",
            "-o", str(path),
        ]
    )
    assert code == 0
    return path


def run_train(tmp_path, dataset_csv, out_name="run", extra=()):
    out = tmp_path / out_name
    code = main(
        [
            "train",
            "--data", str(dataset_csv),
            "--loss", "smooth-ap",
            "--tau", "0.05",
            "--batch", "8",
            "--per-class", "2",
            "--steps", "6",
            "--eval-every", "3",
            "--test-fraction", "0.3",
            "--d-out", "6",
            "--seed", "3",
            "-o", str(out),
            *extra,
        ]
    )
    return code, out


class TestGenData:
    def test_row_count(self, tmp_path, dataset_csv):
        lines = dataset_csv.read_text().splitlines()
        assert len(lines) == 80

    def test_rerun_byte_identical(self, tmp_path, dataset_csv):
        again = tmp_path / "ds2.csv"
        main(
            [
                "gen-data", "--classes", "10", "--per-class", "8", "--dim", "12",
                "--noise", "0.15", "--signal-dim", "6", "--seed", "7", "-o", str(again),
            ]
        )
        assert again.read_bytes() == dataset_csv.read_bytes()

    def test_manifest_written(self, tmp_path, dataset_csv):
        manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 7
        assert manifest["config"]["num_classes"] == 10
        assert manifest["finished_at"] is not None

    def test_signal_dim_zero_means_isotropic(self, tmp_path):
        out = tmp_path / "iso.csv"
        assert main(["gen-data", "--dim", "12", "--signal-dim", "0", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()[0].split(",")) == 2 + 12

    def test_default_signal_dim_too_wide_usage_error(self, tmp_path, capsys):
        assert main(["gen-data", "--dim", "12", "-o", str(tmp_path / "x.csv")]) == 2
        assert "signal_dim must be in [1, 12], got 16" in capsys.readouterr().err

    def test_too_few_classes_usage_error(self, tmp_path, capsys):
        code = main(["gen-data", "--classes", "1", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_metrics_rows_match_cadence(self, tmp_path, dataset_csv):
        code, out = run_train(tmp_path, dataset_csv)
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("step,train_loss,test_map,recall_at_1")
        assert len(lines) == 1 + 3  # steps 0, 3, 6

    def test_outputs_exist(self, tmp_path, dataset_csv):
        _, out = run_train(tmp_path, dataset_csv, extra=("--plot",))
        for name in ("metrics.csv", "timings.csv", "encoder.bin", "manifest.json"):
            assert (out / name).exists()
        svg = (out / "plot_test_map.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        params = load_encoder(out / "encoder.bin")
        assert params.weight.shape == (12, 6)

    def test_rerun_metrics_byte_identical(self, tmp_path, dataset_csv):
        _, out_a = run_train(tmp_path, dataset_csv, "run_a")
        _, out_b = run_train(tmp_path, dataset_csv, "run_b")
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_csv_is_locale_independent(self, tmp_path, dataset_csv):
        _, out = run_train(tmp_path, dataset_csv)
        raw = (out / "metrics.csv").read_bytes()
        assert b"\r" not in raw
        assert b"," in raw and b"." in raw

    def test_manifest_config_round_trips(self, tmp_path, dataset_csv):
        _, out = run_train(tmp_path, dataset_csv)
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["loss"] == "smooth-ap"
        assert cfg["tau"] == 0.05
        assert cfg["batch_size"] == 8
        assert cfg["data"] == str(dataset_csv)
        assert manifest["outputs"]

    def test_manifest_written_before_compute(self, tmp_path, dataset_csv):
        # A config that fails mid-run (batch larger than the train split)
        # must still leave a manifest recording the attempt.
        out = tmp_path / "crash"
        code = main(
            [
                "train", "--data", str(dataset_csv), "--batch", "800",
                "--per-class", "2", "--steps", "1", "--d-out", "6",
                "--test-fraction", "0.3", "-o", str(out),
            ]
        )
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_failed_run_manifest_records_status_and_error(self, tmp_path, dataset_csv, capsys):
        # 16 classes per batch of 64, but the train split has only 7.
        out = tmp_path / "few-classes"
        code = main(
            [
                "train", "--data", str(dataset_csv), "--loss", "contrastive",
                "--batch", "64", "--steps", "1", "--test-fraction", "0.3", "-o", str(out),
            ]
        )
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        assert manifest["status"] == "failed"
        assert "classes" in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["train", "--lr", "-1"], "lr must be positive"),
            (["ablate", "--param", "lr", "--values", "1e-3,-1"], "lr must be positive"),
            (["eval", "--d-out", "0"], "d_out must be positive"),
        ],
    )
    def test_rejected_value_leaves_failed_manifest(self, tmp_path, dataset_csv, capsys, argv, error):
        out = tmp_path / "o"
        assert main(argv + ["--data", str(dataset_csv), "-o", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert error in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err

    def test_diverging_run_manifest_names_the_step(self, tmp_path, dataset_csv, capsys):
        code, out = run_train(tmp_path, dataset_csv, extra=("--lr", "1e300"))
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("step 0: training diverged")
        assert manifest["error"] in capsys.readouterr().err

    def test_successful_run_manifest_records_ok(self, tmp_path, dataset_csv):
        code, out = run_train(tmp_path, dataset_csv)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        assert manifest["status"] == "ok"
        assert manifest["error"] is None

    def test_manifest_records_environment(self, tmp_path, dataset_csv, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        code, out = run_train(tmp_path, dataset_csv)
        assert code == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and isinstance(env["blas_version"], str)
        assert env["cores"] == len(os.sched_getaffinity(0))
        assert env["OMP_NUM_THREADS"] == "3"
        assert env["MKL_NUM_THREADS"] is None
        assert "OPENBLAS_NUM_THREADS" in env

    def test_missing_dataset_usage_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_loss_usage_error(self, tmp_path, dataset_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["train", "--data", str(dataset_csv), "--loss", "nope", "-o", str(tmp_path / "o")]
            )
        assert exc.value.code == 2

    def test_nonpositive_tau_usage_error(self, tmp_path, dataset_csv, capsys):
        code = main(
            [
                "train", "--data", str(dataset_csv), "--tau", "-0.5",
                "-o", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "tau" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_file_supplies_value_flag_overrides(self, tmp_path, dataset_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 4\neval_every = 2\ntau = 0.05\nbatch = 8\nper_class = 2\nd_out = 6\ntest_fraction = 0.3\n")
        out_file = tmp_path / "from_file"
        code = main(
            ["train", "--data", str(dataset_csv), "--config", str(cfg), "-o", str(out_file)]
        )
        assert code == 0
        rows = (out_file / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 3  # steps 0, 2, 4

        out_flag = tmp_path / "flag_wins"
        code = main(
            [
                "train", "--data", str(dataset_csv), "--config", str(cfg),
                "--steps", "2", "-o", str(out_flag),
            ]
        )
        assert code == 0
        rows = (out_flag / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # steps 0, 2

    def test_bad_config_line_usage_error(self, tmp_path, dataset_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps 4\n")
        code = main(
            ["train", "--data", str(dataset_csv), "--config", str(cfg), "-o", str(tmp_path / "o")]
        )
        assert code == 2
        assert "key=value" in capsys.readouterr().err


    def test_unknown_key_names_file_line_and_key(self, tmp_path, dataset_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 2\ntua = 0.5\n")
        out = tmp_path / "o"
        code = main(["train", "--data", str(dataset_csv), "--config", str(cfg), "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "'tua'" in err
        assert not (out / "manifest.json").exists()

    def test_seed_line_precedence(self, tmp_path, dataset_csv, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed = 9\nsteps = 2\neval_every = 2\ntau = 0.05\nbatch = 8\nper_class = 2\n"
            "d_out = 6\ntest_fraction = 0.3\n"
        )
        monkeypatch.setenv("RANK_SMOOTH_SEED", "41")

        def seed_of(name, *extra):
            out = tmp_path / name
            argv = ["train", "--data", str(dataset_csv), "--config", str(cfg), "-o", str(out)]
            assert main(argv + list(extra)) == 0
            return json.loads((out / "manifest.json").read_text())["seed"]

        assert seed_of("file_over_env") == 9
        assert seed_of("flag_over_file", "--seed", "5") == 5


class TestSeedEnvFallback:
    def test_env_seed_used(self, tmp_path, dataset_csv, monkeypatch):
        monkeypatch.setenv("RANK_SMOOTH_SEED", "41")
        out = tmp_path / "env_seed"
        code = main(
            [
                "train", "--data", str(dataset_csv), "--tau", "0.05", "--batch", "8",
                "--per-class", "2", "--steps", "2", "--eval-every", "2",
                "--test-fraction", "0.3", "--d-out", "6", "-o", str(out),
            ]
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 41

    def test_bad_env_seed_usage_error(self, tmp_path, dataset_csv, monkeypatch, capsys):
        monkeypatch.setenv("RANK_SMOOTH_SEED", "forty-one")
        code = main(
            ["train", "--data", str(dataset_csv), "-o", str(tmp_path / "o")]
        )
        assert code == 2


class TestEval:
    def test_eval_fresh_and_checkpoint(self, tmp_path, dataset_csv):
        _, out = run_train(tmp_path, dataset_csv)
        eval_out = tmp_path / "eval"
        code = main(
            [
                "eval", "--data", str(dataset_csv), "--checkpoint", str(out / "encoder.bin"),
                "--seed", "0", "-o", str(eval_out),
            ]
        )
        assert code == 0
        lines = (eval_out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2
        values = lines[1].split(",")
        assert 0.0 <= float(values[2]) <= 1.0

    @pytest.mark.parametrize("magic, hidden_dim", [(b"RSM1", None), (b"RSM2", 5)])
    def test_checkpoint_metrics_equal_library_kernels(self, tmp_path, dataset_csv, magic, hidden_dim):
        ds = load_features_csv(dataset_csv)
        ckpt = tmp_path / "encoder.bin"
        save_encoder(ckpt, init_encoder(ds.dim, 6, seed=3, bias=True, hidden_dim=hidden_dim))
        assert ckpt.read_bytes()[:4] == magic
        eval_out = tmp_path / "eval"
        code = main(["eval", "--data", str(dataset_csv), "--checkpoint", str(ckpt), "-o", str(eval_out)])
        assert code == 0
        header, row = (eval_out / "metrics.csv").read_text().splitlines()
        got = dict(zip(header.split(","), map(float, row.split(","))))
        batch = encode(ds.features, ds.class_ids, load_encoder(ckpt))
        test_map, recalls = map_and_recall(batch, (1, 4, 16))
        diag = SmoothApConfig()
        want = {
            "test_map": test_map,
            **{f"recall_at_{k}": recall for k, recall in recalls.items()},
            "ap_error": batch_ap_error(batch, diag),
            "operating_region": batch_operating_region(batch, diag),
        }
        assert {name: got[name] for name in want} == want

    def test_d_out_zero_usage_error(self, tmp_path, dataset_csv, capsys):
        code = main(["eval", "--data", str(dataset_csv), "--d-out", "0", "-o", str(tmp_path / "o")])
        assert code == 2
        assert "error: d_out must be positive" in capsys.readouterr().err

    def test_missing_checkpoint_usage_error(self, tmp_path, dataset_csv, capsys):
        code = main(
            [
                "eval", "--data", str(dataset_csv), "--checkpoint",
                str(tmp_path / "nope.bin"), "-o", str(tmp_path / "o"),
            ]
        )
        assert code == 2


class TestAblateCommand:
    def test_summary_rows(self, tmp_path, dataset_csv):
        out = tmp_path / "ablate"
        code = main(
            [
                "ablate", "--data", str(dataset_csv), "--param", "tau",
                "--values", "0.1,0.05", "--batch", "8", "--per-class", "2",
                "--steps", "2", "--eval-every", "2", "--test-fraction", "0.3",
                "--d-out", "6", "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("tau,step,")
        assert len(lines) == 3

    def test_unknown_param_usage_error(self, tmp_path, dataset_csv, capsys):
        code = main(
            [
                "ablate", "--data", str(dataset_csv), "--param", "gamma",
                "--values", "1", "-o", str(tmp_path / "o"),
            ]
        )
        assert code == 2


class TestGradCheckCommand:
    def test_pass_exit_zero(self, tmp_path, capsys):
        code = main(["grad-check", "--loss", "smooth-ap", "--tau", "1.0", "--m", "8", "--d", "4"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_one(self, tmp_path, capsys):
        code = main(
            [
                "grad-check", "--loss", "smooth-ap", "--tau", "1.0", "--m", "8",
                "--d", "4", "--tolerance", "1e-30",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


    def test_report_csv_written(self, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["grad-check", "--m", "8", "--d", "4", "-o", str(out)])
        assert code == 0
        lines = (out / "grad_check.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("smooth-ap,1.0,")
        assert lines[1].endswith(",1")


    def test_report_manifest_lists_csv(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert main(["grad-check", "--m", "8", "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["outputs"] == [str(out / "grad_check.csv")]

    def test_failed_check_manifest_records_failure(self, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(
            [
                "grad-check", "--m", "8", "--d", "4", "--tau", "1.0",
                "--tolerance", "1e-30", "-o", str(out),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("max relative error ")
        assert manifest["error"].endswith("is not below the tolerance 1.0e-30")
        assert manifest["outputs"] == [str(out / "grad_check.csv")]
        assert (out / "grad_check.csv").read_text().splitlines()[1].endswith(",0")


class TestDiagnosticsCommands:
    def test_approx_error_csv(self, tmp_path, dataset_csv):
        out = tmp_path / "approx"
        code = main(
            [
                "approx-error", "--data", str(dataset_csv), "--taus", "0.1,0.01",
                "--steps", "3", "--batch", "8", "--per-class", "2", "--d-out", "6",
                "--plot", "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "approx_error.csv").read_text().splitlines()
        assert lines[0] == "tau,step,ap_error"
        assert len(lines) == 1 + 2 * 3
        assert (out / "plot_approx_error.svg").exists()

    def test_region_sweep_csv(self, tmp_path, dataset_csv):
        out = tmp_path / "region"
        code = main(
            [
                "region-sweep", "--data", str(dataset_csv), "--batch-sizes", "4,8",
                "--repeats", "1", "--d-out", "6", "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "region_sweep.csv").read_text().splitlines()
        assert lines[0] == "batch_size,mean_operating_region"
        assert len(lines) == 3
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx-error", "--taus", ","],
            ["region-sweep", "--batch-sizes", ","],
            ["ablate", "--param", "tau", "--values", ","],
        ],
    )
    def test_empty_list_usage_error(self, tmp_path, dataset_csv, capsys, argv):
        code = main(argv + ["--data", str(dataset_csv), "-o", str(tmp_path / "o")])
        assert code == 2
        assert "at least one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["approx-error", "--steps", "0"], "steps"),
            (["region-sweep", "--batch-sizes", "4", "--repeats", "0"], "repeats"),
            (["region-sweep", "--batch-sizes", "4", "--repeats", "-1"], "repeats"),
        ],
    )
    def test_empty_sweep_fails(self, tmp_path, dataset_csv, capsys, argv, name):
        out = tmp_path / "o"
        code = main(argv + ["--data", str(dataset_csv), "-o", str(out)])
        assert code == 2
        assert f"error: {name} must be at least 1" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
        assert not list(out.glob("*.csv"))

    def test_bad_recipe_fails_before_training(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "o"
        code = main(["region-sweep", "--data", str(dataset_csv), "--weight-decay", "-2",
                     "-o", str(out)])
        assert code == 2
        assert "error: weight_decay must be nonnegative, got -2.0" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
        assert not (out / "region_sweep.csv").exists()

    def test_region_sweep_rerun_identical(self, tmp_path, dataset_csv):
        outs = []
        for name in ("region_a", "region_b"):
            out = tmp_path / name
            main(
                [
                    "region-sweep", "--data", str(dataset_csv), "--batch-sizes", "4,8",
                    "--repeats", "1", "--d-out", "6", "--seed", "5", "-o", str(out),
                ]
            )
            outs.append((out / "region_sweep.csv").read_bytes())
        assert outs[0] == outs[1]


class TestBlasThreads:
    """Run files do not depend on the BLAS thread count. With OpenBLAS
    0.3.31 on 2 cores, an unchunked Gram product of 500 unit 16-d rows (the
    default data's test split) changes bits between 1 and 2 threads, and so
    do both similarity products of a batch of 420; a batch of 512 is the
    large-batch case."""

    @pytest.mark.parametrize(
        "data_args, train_args",
        [
            ((), ("--steps", "50")),
            (("--classes", "200", "--per-class", "16"),
             ("--batch", "512", "--per-class", "8", "--steps", "20")),
            (("--classes", "250", "--per-class", "4"),
             ("--batch", "420", "--per-class", "4", "--steps", "20", "--eval-every", "10")),
        ],
        ids=["eval-500", "batch-512", "batch-420"],
    )
    def test_train_files_identical_across_thread_counts(self, tmp_path, data_args, train_args):
        data = tmp_path / "data.csv"
        assert main(["gen-data", *data_args, "-o", str(data)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "ranksmooth.cli", "train", "--data", str(data),
                 *train_args, "-o", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"]["OPENBLAS_NUM_THREADS"] == threads
            files[threads] = [(out / name).read_bytes() for name in ("metrics.csv", "encoder.bin")]
        assert files["1"] == files["2"]


class TestFlagsFollowLibrary:
    """The CLI's options and defaults are the library's, so they cannot
    drift apart."""

    def test_train_triplet_margin_reaches_config(self, tmp_path, dataset_csv):
        code, out = run_train(
            tmp_path, dataset_csv, extra=("--loss", "triplet", "--triplet-margin", "0.2")
        )
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["loss"] == "triplet"
        assert config["triplet_margin"] == 0.2

    def test_hidden_dim_zero_usage_error(self, tmp_path, dataset_csv, capsys):
        code, _ = run_train(tmp_path, dataset_csv, extra=("--hidden-dim", "0"))
        assert code == 2
        assert "hidden_dim" in capsys.readouterr().err

    def test_ablate_any_train_field(self, tmp_path, dataset_csv):
        out = tmp_path / "ablate"
        code = main(
            [
                "ablate", "--data", str(dataset_csv), "--param", "weight_decay",
                "--values", "0,1e-3", "--batch", "8", "--per-class", "2",
                "--steps", "2", "--eval-every", "2", "--test-fraction", "0.3",
                "--d-out", "6", "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("weight_decay,step,")
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.001"]

    @pytest.mark.parametrize(
        "command, name, library, fake",
        [
            ("approx-error", "approx_error_sweep", approx_error_sweep,
             lambda ds, taus, steps, **kw: {tau: [0.0] * steps for tau in taus}),
            ("region-sweep", "operating_region_sweep", operating_region_sweep,
             lambda ds, batch_sizes, **kw: {b: 0.5 for b in batch_sizes}),
        ],
    )
    def test_diagnostic_defaults_are_library_defaults(
        self, tmp_path, dataset_csv, monkeypatch, command, name, library, fake
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(inspect.signature(library).bind(*args, **kwargs).arguments)
            return fake(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        assert main([command, "--data", str(dataset_csv), "-o", str(tmp_path / "o")]) == 0
        (passed,) = calls
        for param in inspect.signature(library).parameters.values():
            if param.default is inspect.Parameter.empty or param.name == "seed":
                continue
            got = passed.get(param.name, param.default)
            got = tuple(got) if isinstance(got, list) else got
            assert got == param.default, param.name


class TestManifestConfig:
    """Every subcommand's manifest config is keyed by the library's
    parameter names, plus the seed and the path flags the run was given."""

    @pytest.mark.parametrize(
        "argv, given",
        [
            (["gen-data", "--classes", "3", "--dim", "4", "--signal-dim", "2"], ()),
            (["train", "--data", "{csv}", "--batch", "8", "--per-class", "2", "--steps", "1",
              "--d-out", "6", "--test-fraction", "0.3"], ("data",)),
            (["eval", "--data", "{csv}", "--checkpoint", "{encoder}"], ("data", "checkpoint")),
            (["ablate", "--data", "{csv}", "--param", "batch", "--values", "8",
              "--per-class", "2", "--steps", "1", "--d-out", "6", "--test-fraction", "0.3"],
             ("data", "param", "values")),
            (["grad-check", "--m", "8", "--d", "4"], ()),
            (["approx-error", "--data", "{csv}", "--taus", "0.1", "--steps", "1", "--batch", "8",
              "--per-class", "2", "--d-out", "6"], ("data",)),
            (["region-sweep", "--data", "{csv}", "--batch-sizes", "4", "--repeats", "1",
              "--d-out", "6"], ("data",)),
        ],
    )
    def test_keys_are_library_names(self, tmp_path, dataset_csv, capsys, argv, given):
        encoder = tmp_path / "encoder.bin"
        save_encoder(encoder, init_encoder(12, 16, seed=0))
        command = argv[0]
        out = tmp_path / "o"
        argv = [arg.format(csv=dataset_csv, encoder=encoder) for arg in argv]
        assert main(argv + ["-o", str(out)]) == 0
        manifest = Path(f"{out}.manifest.json") if command == "gen-data" else out / "manifest.json"
        config = json.loads(manifest.read_text())["config"]
        assert set(config) == set(cli.COMMANDS[command][1]) | {"seed", *given}
        assert not set(config) & set(cli.SPELLING.values())
