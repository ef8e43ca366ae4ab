"""The four benchmark workloads: inputs from a seed, the timed public
call(s), and the output checks that run after the timed interval.

Every workload drives the public `ranksmooth` API with one caller in one
process. `setup` builds the inputs from the seed (a dataset, and its CSV
where the workload reads one), `run` is the timed interval, and `check`
returns the output checks' failures together with the deterministic
outputs that the parent compares byte for byte across repeats.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

import ranksmooth as rs
from ranksmooth import cli
from ranksmooth.experiments import RECORD_METRIC_FIELDS

import oracle

RECALL_KS = (1, 4, 16)
# Criterion 6's floor on the default run's test-mAP gain.
MIN_MAP_GAIN = 0.15
ORACLE_TOL = 1e-9

# 800 of the default 2000 steps keep a repeat near 4 s, so a run takes the
# median of six or seven repeats instead of two.
TRIPLET_STEPS = 800

BIGBATCH_STEPS = 600
BIGBATCH_CLASSES = 96
BIGBATCH_PER_CLASS = 8
BIGBATCH_TEST_FRACTION = 0.25

SWEEP_TAUS = (0.1, 0.01, 0.001)
SWEEP_STEPS = 60
SWEEP_BATCH = 64
SWEEP_SIZES = (32, 64, 128, 256)
SWEEP_REPEATS = 16
# Between B=128 and B=256 the sweep's means differ by about one standard
# error (0.0009-0.0013, from the per-batch fractions of 16 repeats), so
# strict order there is a coin flip on some seeds; a drop counts only
# beyond two standard errors. The smaller steps rise by 0.005-0.009.
REGION_TOL = 0.0025


@dataclass
class Outcome:
    """What a workload's checks found after the timed interval."""

    errors: list
    quality: float
    digest: str
    bytes_written: int = 0


def _dataset(seed, num_classes=None, per_class=None):
    spec = rs.SyntheticSpec()
    return rs.gen_synthetic_clusters(
        num_classes or spec.num_classes, per_class or spec.per_class, spec.dim,
        spec.noise_sigma, seed, signal_dim=spec.signal_dim,
    )


def _check_records(rows, errors):
    """rows: list of {field: value}; every record metric must lie in [0, 1]."""
    for row in rows:
        for name in RECORD_METRIC_FIELDS:
            if not 0.0 <= row[name] <= 1.0:
                errors.append(f"step {row['step']}: {name}={row[name]!r} outside [0, 1]")


def _check_oracle(final, params, dataset, test_fraction, seed, errors):
    """The final record's mAP and Recall@K against the sort-based oracle."""
    _, test = rs.split_by_class(dataset, test_fraction, seed)
    batch = rs.encode(test.features, test.class_ids, params)
    want_map, want_recall = oracle.map_and_recall(batch.vectors, batch.class_ids, RECALL_KS)
    got = {"test_map": want_map}
    got.update({f"recall_at_{k}": v for k, v in want_recall.items()})
    for name, want in got.items():
        if abs(final[name] - want) > ORACLE_TOL:
            errors.append(f"final {name}={final[name]!r}, oracle says {want!r}")


class TrainCli:
    """`ranksmooth train` in-process through cli.main, on a generated CSV.

    options: {train option: value} passed on top of the CLI defaults.
    """

    def __init__(self, options, min_gain=None):
        self.options = options
        self.min_gain = min_gain

    def setup(self, seed, workdir):
        dataset = _dataset(seed)
        csv = os.path.join(workdir, "data.csv")
        rs.save_features_csv(csv, dataset)
        out = os.path.join(workdir, "train")
        argv = ["train", "--data", csv, "--seed", str(seed), "-o", out]
        for option, value in self.options.items():
            argv += [f"--{option}", str(value)]
        return {"seed": seed, "dataset": dataset, "out": out, "argv": argv}

    def rows(self, inputs):
        steps = self.options.get("steps", cli.TRAIN_DEFAULTS["steps"])
        return (steps + 1) * cli.TRAIN_DEFAULTS["batch"]

    def run(self, inputs):
        status = cli.main(inputs["argv"])
        if status != 0:
            raise RuntimeError(f"ranksmooth {' '.join(inputs['argv'])} exited {status}")

    def check(self, inputs, result):
        out = inputs["out"]
        with open(os.path.join(out, "metrics.csv"), "rb") as fh:
            metrics = fh.read()
        with open(os.path.join(out, "encoder.bin"), "rb") as fh:
            checkpoint = fh.read()
        header, *lines = metrics.decode().splitlines()
        names = header.split(",")
        rows = [dict(zip(names, map(float, line.split(",")))) for line in lines]
        errors = []
        _check_records(rows, errors)
        gain = rows[-1]["test_map"] - rows[0]["test_map"]
        if self.min_gain is not None and gain < self.min_gain:
            errors.append(f"test mAP gain {gain:+.4f} below the floor {self.min_gain}")
        _check_oracle(
            rows[-1], rs.load_encoder(os.path.join(out, "encoder.bin")), inputs["dataset"],
            cli.TRAIN_DEFAULTS["test_fraction"], inputs["seed"], errors,
        )
        written = sum(entry.stat().st_size for entry in os.scandir(out) if entry.is_file())
        digest = hashlib.sha256(metrics + checkpoint).hexdigest()
        return Outcome(errors, rows[-1]["test_map"], digest, written)


class TrainBigBatch:
    """experiments.train with the smoothed-AP loss at B=256, |P|=4."""

    def setup(self, seed, workdir):
        dataset = _dataset(seed, BIGBATCH_CLASSES, BIGBATCH_PER_CLASS)
        csv = os.path.join(workdir, "data.csv")
        rs.save_features_csv(csv, dataset)
        cfg = rs.TrainConfig(
            batch_size=256, per_class=4, steps=BIGBATCH_STEPS, eval_every=BIGBATCH_STEPS,
            seed=seed, data=rs.CsvSpec(path=csv), test_fraction=BIGBATCH_TEST_FRACTION,
        )
        return {"seed": seed, "dataset": dataset, "config": cfg}

    def rows(self, inputs):
        cfg = inputs["config"]
        return (cfg.steps + 1) * cfg.batch_size

    def run(self, inputs):
        return rs.train(inputs["config"])

    def check(self, inputs, result):
        rows = [
            {"step": r.step, **{name: getattr(r, name) for name in RECORD_METRIC_FIELDS}}
            for r in result.records
        ]
        errors = []
        _check_records(rows, errors)
        _check_oracle(
            rows[-1], result.params, inputs["dataset"], BIGBATCH_TEST_FRACTION,
            inputs["seed"], errors,
        )
        text = "\n".join(",".join(repr(v) for v in row.values()) for row in rows)
        digest = hashlib.sha256(text.encode() + result.params.weight.tobytes()).hexdigest()
        return Outcome(errors, rows[-1]["test_map"], digest)


class DiagSweeps:
    """approx_error_sweep over temperatures, then operating_region_sweep
    over batch sizes, on the default dataset held in memory."""

    def setup(self, seed, workdir):
        return {"seed": seed, "dataset": _dataset(seed)}

    def rows(self, inputs):
        n = len(inputs["dataset"])
        region = SWEEP_REPEATS * sum(n // b * b for b in SWEEP_SIZES)
        return len(SWEEP_TAUS) * SWEEP_STEPS * SWEEP_BATCH + region

    def run(self, inputs):
        dataset, seed = inputs["dataset"], inputs["seed"]
        errors = rs.approx_error_sweep(
            dataset, SWEEP_TAUS, SWEEP_STEPS, batch_size=SWEEP_BATCH, per_class=4, seed=seed
        )
        region = rs.operating_region_sweep(dataset, SWEEP_SIZES, seed=seed, repeats=SWEEP_REPEATS)
        return errors, region

    def check(self, inputs, result):
        errors_by_tau, region = result
        errors = []
        values = [e for tau in SWEEP_TAUS for e in errors_by_tau[tau]] + list(region.values())
        if not all(0.0 <= v <= 1.0 for v in values):
            errors.append("an AP error or region fraction lies outside [0, 1]")
        # Criterion 4: a colder sigmoid approximates AP more tightly.
        means = [float(np.mean(errors_by_tau[tau])) for tau in sorted(SWEEP_TAUS)]
        if not all(a < b for a, b in zip(means, means[1:])):
            errors.append(f"mean AP error not increasing in tau: {means}")
        # Criterion 5: the operating-region fraction does not fall with B,
        # up to the sweep's sampling error (see REGION_TOL).
        fractions = [region[b] for b in SWEEP_SIZES]
        if not all(a <= b + REGION_TOL for a, b in zip(fractions, fractions[1:])):
            errors.append(f"region fraction decreases with batch size: {fractions}")
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        # One minus the AP error at the default temperature relative to the
        # warmest one: it falls as the cold error grows, and its spread across
        # seeds is far below that of either error alone.
        by_tau = dict(zip(sorted(SWEEP_TAUS), means))
        quality = 1.0 - by_tau[rs.SmoothApConfig().tau] / by_tau[max(SWEEP_TAUS)]
        return Outcome(errors, quality, digest)


WORKLOADS = {
    "train-default": TrainCli({}, min_gain=MIN_MAP_GAIN),
    "train-bigbatch": TrainBigBatch(),
    "diag-sweeps": DiagSweeps(),
    "train-triplet": TrainCli(
        {"loss": "triplet", "steps": TRIPLET_STEPS, "eval-every": TRIPLET_STEPS}
    ),
}
