"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The training-trend criteria use the package's default desk-scale
synthetic configuration; the ablation criterion uses a harder dataset
(more classes, more noise) where the temperature trade-off is visible,
with every grid averaged over three seeds.
"""

import time
from dataclasses import replace

import numpy as np

from helpers import central_difference, gapped_scores, loss_timing, max_rel_error, random_batch
from ranksmooth.baselines import violating_terms
from ranksmooth.cli import main
from ranksmooth.data import gen_synthetic_clusters
from ranksmooth.experiments import (
    SyntheticSpec,
    TrainConfig,
    ablate,
    operating_region_sweep,
    train,
)
from ranksmooth.ranking import EmbeddingBatch, ScoredSet, exact_ap
from ranksmooth.smoothap import (
    SmoothApConfig,
    ap_approx_error,
    batch_ap_error,
    operating_region_halfwidth,
    smooth_ap_loss,
)
from test_ranking import WORKED_LABELS, WORKED_SCORES
from helpers import precision_at_hit_ap, nondegenerate_labelings


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_ap_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for m in range(2, 9):
        for labels in nondegenerate_labelings(m):
            for _ in range(50):
                scores = rng.uniform(-1.0, 1.0, size=m)
                got = exact_ap(ScoredSet(scores, labels))
                want = precision_at_hit_ap(scores, labels)
                worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - started
    _report(
        1,
        "AP oracle equivalence",
        worst <= 1e-12 and elapsed < 10.0,
        f"max |diff| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_worked_example():
    scored = ScoredSet(WORKED_SCORES, WORKED_LABELS)
    ap = exact_ap(scored)
    pairs = violating_terms(scored)
    expected_pairs = [(4, 1), (4, 2), (4, 3), (5, 3), (6, 3), (7, 3)]
    ok = abs(ap - 0.729167) <= 1e-6 and pairs == expected_pairs
    _report(2, "worked example", ok, f"AP {ap:.6f}, {len(pairs)} violating pairs")


def test_criterion_3_gradient_correctness():
    from ranksmooth.baselines import TripletConfig, contrastive_loss, triplet_loss

    started = time.perf_counter()

    def loss_fn(kind, tau):
        if kind == "smooth-ap":
            return lambda b: smooth_ap_loss(b, SmoothApConfig(tau))
        if kind == "triplet":
            return lambda b: triplet_loss(b, TripletConfig(margin=0.1))
        return lambda b: contrastive_loss(b, margin=0.5)

    cases = [
        ("smooth-ap", 1.0, 1e-5),
        ("smooth-ap", 0.01, 1e-3),
        ("triplet", None, 1e-6),
        ("contrastive", None, 1e-6),
    ]
    details = []
    ok = True
    for kind, tau, tol in cases:
        fn = loss_fn(kind, tau)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch = random_batch(rng, 4, 4, 8)  # 16 embeddings, 8 dims
            analytic = fn(batch).embedding_grad
            numeric = central_difference(
                lambda x: fn(EmbeddingBatch.from_raw(x, batch.class_ids)).loss,
                batch.vectors,
                step=1e-6,
            )
            worst = max(worst, max_rel_error(analytic, numeric))
        label = kind if tau is None else f"{kind}@tau={tau}"
        details.append(f"{label}: {worst:.2e} (tol {tol:.0e})")
        ok = ok and worst < tol
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(3, "gradient correctness", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_4_tightness_ordering():
    taus = (0.001, 0.01, 0.1)
    sums = {tau: 0.0 for tau in taus}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, 8, 4, 16)
        for tau in taus:
            sums[tau] += batch_ap_error(batch, SmoothApConfig(tau))
    means = {tau: sums[tau] / 100.0 for tau in taus}
    ordered = means[0.001] < means[0.01] < means[0.1]

    rng = np.random.default_rng(999)
    tight = SmoothApConfig(tau=1e-6)
    worst_tight = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 24))
        scores = gapped_scores(rng, m, 0.01)
        labels = rng.random(m) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        worst_tight = max(worst_tight, ap_approx_error(ScoredSet(scores, labels), tight))
    ok = ordered and worst_tight < 1e-3
    _report(
        4,
        "tightness ordering",
        ok,
        f"AP_e means {means[0.001]:.5f} < {means[0.01]:.5f} < {means[0.1]:.5f}; "
        f"tight max {worst_tight:.2e}",
    )


def test_criterion_5_operating_region():
    spec = SyntheticSpec()
    dataset = gen_synthetic_clusters(
        spec.num_classes, spec.per_class, spec.dim, spec.noise_sigma, seed=0,
        signal_dim=spec.signal_dim,
    )
    sizes = [32, 64, 128, 256]
    sweep = operating_region_sweep(dataset, sizes, seed=0, repeats=16)
    values = [sweep[b] for b in sizes]
    nondecreasing = all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    halfwidth = operating_region_halfwidth(SmoothApConfig(tau=0.01, grad_threshold=0.005))
    halfwidth_ok = abs(halfwidth - 0.099) <= 0.1 * 0.099
    _report(
        5,
        "operating-region trend",
        nondecreasing and halfwidth_ok,
        f"P {['%.4f' % v for v in values]}, halfwidth {halfwidth:.5f}",
    )


def test_criterion_6_training_efficacy():
    started = time.perf_counter()
    base = TrainConfig(seed=0, eval_every=2000)  # defaults: smooth-ap, tau 0.01, B 64, |P| 4
    smooth = train(base)
    gain = smooth.final.test_map - smooth.records[0].test_map
    triplet = train(replace(base, loss="triplet"))
    elapsed = time.perf_counter() - started
    ok = gain >= 0.15 and smooth.final.test_map >= triplet.final.test_map and elapsed < 120.0
    _report(
        6,
        "training efficacy",
        ok,
        f"mAP {smooth.records[0].test_map:.3f}->{smooth.final.test_map:.3f} "
        f"(gain {gain:+.3f}), triplet {triplet.final.test_map:.3f}, {elapsed:.0f}s",
    )


def test_criterion_7_ablation_trends():
    base = TrainConfig(
        loss="smooth-ap",
        tau=0.01,
        batch_size=128,
        per_class=4,
        steps=800,
        eval_every=800,
        lr=1e-3,
        seed=0,
        data=SyntheticSpec(num_classes=64, per_class=20, noise_sigma=0.2),
        test_fraction=0.25,
    )

    def seed_mean(cfg):
        # The three seeds of cfg train together on ablate's worker pool.
        return float(np.mean([final.test_map for _, final, _ in ablate(cfg, "seed", [0, 1, 2])]))

    # Each grid lists the base value first; train is deterministic
    # (criterion 9), so the base config trains once per seed.
    grids = {"tau": [0.01, 0.1], "per_class": [4, 16], "batch_size": [128, 32]}
    base_map = seed_mean(base)
    means = {}
    for param, values in grids.items():
        assert getattr(base, param) == values[0]
        means[param] = {values[0]: base_map,
                        values[1]: seed_mean(replace(base, **{param: values[1]}))}

    tau_ok = means["tau"][0.01] >= means["tau"][0.1]
    pc_ok = means["per_class"][4] >= means["per_class"][16]
    batch_ok = means["batch_size"][128] >= means["batch_size"][32]
    _report(
        7,
        "ablation trends",
        tau_ok and pc_ok and batch_ok,
        f"tau {means['tau'][0.01]:.3f} vs {means['tau'][0.1]:.3f}; "
        f"|P| {means['per_class'][4]:.3f} vs {means['per_class'][16]:.3f}; "
        f"B {means['batch_size'][128]:.3f} vs {means['batch_size'][32]:.3f}",
    )


def test_criterion_8_complexity_scaling():
    timings = loss_timing([256, 512], repeats=15)
    ratio = timings[512] / timings[256]
    _report(
        8,
        "complexity scaling",
        3.0 <= ratio <= 6.0,
        f"t(512)/t(256) = {ratio:.2f} ({timings[256]:.1f}ms -> {timings[512]:.1f}ms)",
    )


def test_criterion_9_determinism(tmp_path):
    data_args = [
        "gen-data", "--classes", "10", "--per-class", "8", "--dim", "12",
        "--noise", "0.15", "--signal-dim", "6", "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(data_args + ["-o", str(a)]) == 0
    assert main(data_args + ["-o", str(b)]) == 0
    data_ok = a.read_bytes() == b.read_bytes()

    train_args = [
        "train", "--data", str(a), "--tau", "0.05", "--batch", "8",
        "--per-class", "2", "--steps", "6", "--eval-every", "3",
        "--test-fraction", "0.3", "--d-out", "6", "--seed", "4",
    ]
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert main(train_args + ["-o", str(out)]) == 0
        outs.append(out)
    train_ok = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()

    eval_args = [
        "eval", "--data", str(a), "--checkpoint", str(outs[0] / "encoder.bin"), "--seed", "4",
    ]
    evals = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(eval_args + ["-o", str(out)]) == 0
        evals.append((out / "metrics.csv").read_bytes())
    eval_ok = evals[0] == evals[1]

    _report(
        9,
        "determinism",
        data_ok and train_ok and eval_ok,
        f"gen-data {data_ok}, train {train_ok}, eval {eval_ok}",
    )
