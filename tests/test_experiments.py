import dataclasses
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from helpers import loss_timing
from ranksmooth import experiments
from ranksmooth.baselines import SingleClassBatchError
from ranksmooth.cli import CheckFailed, UsageError
from ranksmooth.data import (
    CsvFormatError,
    DuplicateIdError,
    FieldFormatError,
    RaggedRowError,
    SamplerError,
    gen_synthetic_clusters,
)
from ranksmooth.encoder import CheckpointFormatError
from ranksmooth.experiments import (
    CsvSpec,
    SyntheticSpec,
    TrainConfig,
    ablate,
    approx_error_sweep,
    grad_check,
    operating_region_sweep,
    train,
)
from ranksmooth.ranking import DegenerateLabelsError, DegenerateQueryError

# Test split must keep at least 17 instances so Recall@16 is defined.
TINY_DATA = SyntheticSpec(num_classes=10, per_class=8, dim=12, noise_sigma=0.15, signal_dim=6)


def tiny_config(**overrides):
    base = dict(
        loss="smooth-ap",
        tau=0.05,
        batch_size=8,
        per_class=2,
        steps=6,
        eval_every=3,
        lr=1e-3,
        seed=0,
        data=TINY_DATA,
        test_fraction=0.3,
        d_out=6,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            tiny_config(loss="hinge")

    def test_nonpositive_tau_rejected_for_every_loss(self):
        for loss in ("smooth-ap", "triplet", "contrastive"):
            with pytest.raises(ValueError, match="tau"):
                tiny_config(loss=loss, tau=0.0)

    def test_hidden_dim_below_one_rejected(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            tiny_config(hidden_dim=0)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(batch_size=10, per_class=4), "divide"),
            (dict(grad_threshold=0.0), "grad_threshold"),
            (dict(triplet_margin=-0.1), "margin"),
            (dict(per_class=1), "^per_class must be at least 2, got 1: "),
            (dict(seed=-1), "^seed must be nonnegative, got -1$"),
        ],
    )
    def test_sub_config_checks_run_at_construction(self, overrides, match):
        # The sampler, SmoothApConfig and TripletConfig would each reject
        # the first three values at the first training step; a batch of one
        # instance per class has no positive, so no loss trains on it; and
        # NumPy would reject a negative seed in the middle of a run.
        with pytest.raises(ValueError, match=match):
            tiny_config(**overrides)

    @pytest.mark.parametrize("name", ["triplet_margin", "contrastive_margin"])
    def test_bad_margin_names_its_field(self, name):
        with pytest.raises(ValueError, match=f"^{name}: margin must be nonnegative, got -1.0$"):
            tiny_config(**{name: -1.0})

    def test_synthetic_spec_checked_at_construction(self):
        # The default signal_dim 16 does not fit in 12 dimensions.
        with pytest.raises(ValueError, match=r"signal_dim must be in \[1, 12\], got 16"):
            TrainConfig(data=SyntheticSpec(dim=12))

    @pytest.mark.parametrize("loss", ["triplet", "contrastive"])
    def test_pair_loss_rejects_one_class_batches(self, loss):
        # A batch of one class gives no query a negative, so it cannot train.
        with pytest.raises(ValueError, match=f"^loss {loss} needs a negative for every query"):
            tiny_config(loss=loss, batch_size=4, per_class=4)
        tiny_config(loss="smooth-ap", batch_size=4, per_class=4)

    def test_positive_counts_enforced(self):
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)
        with pytest.raises(ValueError):
            tiny_config(steps=-1)
        with pytest.raises(ValueError):
            tiny_config(lr=0.0)


class TestTrain:
    def test_zero_steps_single_untrained_record(self):
        result = train(tiny_config(steps=0))
        assert len(result.records) == 1
        assert result.records[0].step == 0

    def test_record_cadence(self):
        result = train(tiny_config(steps=6, eval_every=3))
        assert [r.step for r in result.records] == [0, 3, 6]

    def test_metrics_in_unit_interval(self):
        result = train(tiny_config())
        for r in result.records:
            for name in (
                "train_loss",
                "test_map",
                "recall_at_1",
                "recall_at_4",
                "recall_at_16",
                "ap_error",
                "operating_region",
            ):
                assert 0.0 <= getattr(r, name) <= 1.0, name

    def test_deterministic_records(self):
        a = train(tiny_config())
        b = train(tiny_config())
        for ra, rb in zip(a.records, b.records):
            assert ra.step == rb.step
            for name in ("train_loss", "test_map", "recall_at_1", "ap_error", "operating_region"):
                assert getattr(ra, name) == getattr(rb, name), name
        assert np.array_equal(a.params.weight, b.params.weight)

    def test_all_losses_run(self):
        for loss in ("smooth-ap", "triplet", "contrastive"):
            result = train(tiny_config(loss=loss))
            assert len(result.records) == 3

    def test_hidden_layer_path(self):
        result = train(tiny_config(hidden_dim=10, steps=3, eval_every=3))
        assert result.params.weight_in.shape == (12, 10)

    def test_diverging_update_names_its_step(self):
        # The first update moves every weight by about lr, so the weight
        # norm overflows before the next encode.
        with pytest.raises(FloatingPointError, match=r"^step 0: .*weight"):
            train(tiny_config(lr=1e300))

    def test_nonfinite_loss_names_its_step(self, monkeypatch):
        real_loss = experiments._loss_for
        calls = []

        def nan_at_step_two(cfg, batch):
            calls.append(batch)
            out = real_loss(cfg, batch)
            return dataclasses.replace(out, loss=np.nan) if len(calls) == 3 else out

        monkeypatch.setattr(experiments, "_loss_for", nan_at_step_two)
        with pytest.raises(FloatingPointError, match=r"^step 2: .*loss is nan"):
            train(tiny_config())

    def test_csv_spec_round_trip(self, tmp_path):
        from ranksmooth.data import save_features_csv

        ds = gen_synthetic_clusters(10, 8, 12, 0.15, seed=0, signal_dim=6)
        path = tmp_path / "ds.csv"
        save_features_csv(path, ds)
        result = train(tiny_config(data=CsvSpec(path=str(path))))
        assert len(result.records) == 3


class TestAblate:
    def test_varies_exactly_one_field(self):
        base = tiny_config(steps=2, eval_every=2)
        rows = ablate(base, "tau", [0.05, 0.5])
        assert [value for value, _, _ in rows] == [0.05, 0.5]
        for value, final, result in rows:
            diffs = {
                f.name
                for f in dataclasses.fields(TrainConfig)
                if getattr(result.config, f.name) != getattr(base, f.name)
            }
            assert diffs <= {"tau"}
            assert result.config.tau == value
            assert final.step == 2

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ablate(tiny_config(), "gamma", [1.0])

    def test_bad_grid_value_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "train", lambda cfg: calls.append(cfg))
        # per_class 3 does not divide batch_size 8; per_class 2 comes first.
        with pytest.raises(ValueError, match="divide"):
            ablate(tiny_config(batch_size=8), "per_class", [2, 3])
        assert calls == []

    def test_bad_contrastive_margin_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "train", lambda cfg: calls.append(cfg))
        with pytest.raises(ValueError, match="margin must be nonnegative"):
            ablate(tiny_config(loss="contrastive"), "contrastive_margin", [0.5, -1.0])
        assert calls == []

    def test_one_class_pair_loss_batch_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "train", lambda cfg: calls.append(cfg))
        with pytest.raises(ValueError, match="needs a negative"):
            ablate(tiny_config(loss="triplet", batch_size=4), "per_class", [2, 4])
        assert calls == []


class TestGradCheck:
    def test_smooth_ap_report(self):
        report = grad_check(loss="smooth-ap", m=8, d=4, tau=1.0, seed=0)
        assert report.passed
        assert report.max_rel_error < 1e-5

    def test_failing_tolerance_reported(self):
        report = grad_check(loss="smooth-ap", m=8, d=4, tau=1.0, tolerance=1e-30, seed=0)
        assert not report.passed

    def test_batch_size_must_fit_classes(self):
        with pytest.raises(ValueError, match="multiple"):
            grad_check(m=7)


@pytest.fixture()
def train_steps_calls(monkeypatch):
    """Record every training run a sweep starts, without running it."""
    calls = []
    monkeypatch.setattr(experiments, "_train_steps", lambda *args: calls.append(args) or ())
    return calls


class TestApproxErrorSweep:
    def test_rows_per_temperature(self):
        ds = gen_synthetic_clusters(8, 6, 12, 0.15, seed=0, signal_dim=6)
        out = approx_error_sweep(ds, [0.02], steps=4, batch_size=8, per_class=2, d_out=6)
        assert set(out) == {0.02}
        assert len(out[0.02]) == 4

    def test_temperature_ordering(self):
        ds = gen_synthetic_clusters(10, 8, 16, 0.15, seed=1, signal_dim=8)
        out = approx_error_sweep(ds, [0.001, 0.01, 0.1], steps=6, batch_size=16, per_class=4, d_out=8)
        means = {tau: float(np.mean(v)) for tau, v in out.items()}
        assert means[0.001] < means[0.01] < means[0.1]

    def test_deterministic(self):
        ds = gen_synthetic_clusters(8, 6, 12, 0.15, seed=2, signal_dim=6)
        a = approx_error_sweep(ds, [0.05], steps=3, batch_size=8, per_class=2, d_out=6)
        b = approx_error_sweep(ds, [0.05], steps=3, batch_size=8, per_class=2, d_out=6)
        assert a == b

    @pytest.mark.parametrize("steps", [0, -3])
    def test_rejects_no_steps(self, steps):
        ds = gen_synthetic_clusters(8, 6, 12, 0.15, seed=2, signal_dim=6)
        with pytest.raises(ValueError, match="steps must be at least 1"):
            approx_error_sweep(ds, [0.05], steps=steps, batch_size=8, per_class=2)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(lr=-1.0), "lr must be positive"),
            (dict(d_out=0), "d_out must be positive"),
            (dict(weight_decay=-2.0), "^weight_decay must be nonnegative, got -2.0$"),
            (dict(per_class=1), "^per_class must be at least 2, got 1: "),
        ],
    )
    def test_bad_recipe_rejected_before_training(self, train_steps_calls, overrides, match):
        ds = gen_synthetic_clusters(8, 6, 12, 0.15, seed=2, signal_dim=6)
        with pytest.raises(ValueError, match=match):
            approx_error_sweep(ds, **overrides)
        assert train_steps_calls == []


class TestOperatingRegionSweep:
    def test_single_instance_batches_full_region(self):
        ds = gen_synthetic_clusters(6, 4, 8, 0.2, seed=3)
        out = operating_region_sweep(ds, [1], repeats=1)
        assert out[1] == 1.0

    def test_deterministic(self):
        ds = gen_synthetic_clusters(6, 4, 8, 0.2, seed=4)
        a = operating_region_sweep(ds, [4, 8], repeats=2, seed=5)
        b = operating_region_sweep(ds, [4, 8], repeats=2, seed=5)
        assert a == b

    def test_batch_size_bounds_checked(self):
        ds = gen_synthetic_clusters(4, 2, 8, 0.2, seed=5)
        with pytest.raises(ValueError, match="out of range"):
            operating_region_sweep(ds, [9], repeats=1)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_rejects_no_repeats(self, repeats):
        ds = gen_synthetic_clusters(4, 2, 8, 0.2, seed=5)
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            operating_region_sweep(ds, [4], repeats=repeats)

    def test_bad_recipe_rejected_before_training(self, train_steps_calls):
        ds = gen_synthetic_clusters(4, 2, 8, 0.2, seed=5)
        with pytest.raises(ValueError, match="^weight_decay must be nonnegative, got -2.0$"):
            operating_region_sweep(ds, weight_decay=-2.0)
        assert train_steps_calls == []

    def test_values_are_fractions(self):
        ds = gen_synthetic_clusters(6, 4, 8, 0.2, seed=6)
        out = operating_region_sweep(ds, [4, 12], repeats=1)
        assert all(0.0 <= v <= 1.0 for v in out.values())


def _cores(monkeypatch, cores):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)


def _ablation_outputs(rows):
    """Everything an ablation returns but the wall times."""
    return [
        (value, [dataclasses.replace(r, wall_ms=0.0) for r in result.records],
         result.params.weight.tobytes())
        for value, _, result in rows
    ]


class TestMapRuns:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: approx_error_sweep(gen_synthetic_clusters(8, 6, 12, 0.15, seed=2, signal_dim=6),
                                       [0.1, 0.01, 0.001], steps=3, batch_size=8, per_class=2,
                                       d_out=6),
            lambda: operating_region_sweep(gen_synthetic_clusters(6, 4, 8, 0.2, seed=4), [4, 8, 12],
                                           repeats=3, seed=5),
            lambda: _ablation_outputs(ablate(tiny_config(steps=2, eval_every=2), "tau",
                                             [0.05, 0.5, 0.01])),
        ],
        ids=["approx_error_sweep", "operating_region_sweep", "ablate"],
    )
    def test_two_workers_match_one(self, monkeypatch, call):
        outputs = []
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            outputs.append(call())
        assert outputs[0] == outputs[1]

    def test_runs_in_workers(self, monkeypatch):
        _cores(monkeypatch, 2)
        pids = experiments._map_runs(lambda task: os.getpid(), [0, 1, 2])
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_serial_on_one_core(self, monkeypatch):
        _cores(monkeypatch, 1)
        assert experiments._map_runs(lambda task: os.getpid(), [0, 1]) == [os.getpid()] * 2

    def test_worker_error_reaches_caller(self, monkeypatch, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0.5,0.25\n1,1,0.1\n")
        _cores(monkeypatch, 2)
        with pytest.raises(RaggedRowError, match="^line 2: ") as caught:
            ablate(tiny_config(data=CsvSpec(path=str(path))), "tau", [0.1, 0.2])
        assert caught.value.line == 2
        assert multiprocessing.active_children() == []

    def test_first_failure_in_task_order(self, monkeypatch):
        def run(task):
            if task == 1:
                time.sleep(0.3)  # task 3 fails first in time
            if task % 2:
                raise DegenerateQueryError(task)
            return task

        _cores(monkeypatch, 2)
        with pytest.raises(DegenerateQueryError, match="^class 1 has a single instance") as caught:
            experiments._map_runs(run, [0, 1, 2, 3])
        assert caught.value.class_id == 1
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "error",
    [
        CsvFormatError("bad row", 3),
        RaggedRowError("ragged", 4),
        FieldFormatError("not a number", 5),
        DuplicateIdError("id 7 repeats", 6),
        SamplerError("too few classes"),
        DegenerateLabelsError("no positives"),
        DegenerateQueryError(5),
        SingleClassBatchError(2),
        CheckpointFormatError("bad magic"),
        UsageError("bad flag"),
        CheckFailed("failed check"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_error_survives_pickling(error):
    # A run that fails in a pool worker reaches the caller pickled.
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))


class TestLossTiming:
    def test_positive_and_monotone(self):
        out = loss_timing([32, 128], repeats=5)
        assert out[32] > 0.0
        assert out[128] > out[32]

    def test_stability_of_repeat_runs(self):
        loss_timing([64], repeats=5)  # settle caches and allocator
        # The two sides take turns, so that a host stall lands on both.
        a, b = [], []
        for _ in range(9):
            a.append(loss_timing([64], repeats=1)[64])
            b.append(loss_timing([64], repeats=1)[64])
        a, b = min(a), min(b)
        assert abs(a - b) / max(a, b) < 0.25

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError, match="multiple"):
            loss_timing([30])
