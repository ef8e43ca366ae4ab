"""Training loop, ablation grids, gradient checks, and diagnostic sweeps.

Every fact needed to reproduce a run lives in TrainConfig; all randomness
flows from its seed through explicit streams (encoder init, batch
sampler), so identical configs produce bit-identical metric logs. Wall
times are recorded alongside but are the one intentionally non-repeatable
quantity.
"""

import time
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice

import numpy as np

from .baselines import TripletConfig, contrastive_loss, triplet_loss
from .data import (
    SamplerConfig,
    SamplerState,
    gen_synthetic_clusters,
    load_features_csv,
    split_by_class,
    next_batch,
)
from .encoder import (
    AdamState,
    EncoderParams,
    adam_step,
    encode,
    encode_backward,
    init_encoder,
    param_arrays,
)
from .ranking import EmbeddingBatch, map_and_recall
from .smoothap import (
    DEFAULT_GRAD_THRESHOLD,
    DEFAULT_TAU,
    SmoothApConfig,
    batch_ap_error,
    batch_operating_region,
    smooth_ap_loss,
)

__all__ = [
    "SyntheticSpec",
    "CsvSpec",
    "TrainConfig",
    "ExperimentRecord",
    "TrainResult",
    "GradCheckReport",
    "LOSS_KINDS",
    "measure",
    "train",
    "ablate",
    "grad_check",
    "approx_error_sweep",
    "operating_region_sweep",
    "loss_timing",
]

LOSS_KINDS = ("smooth-ap", "triplet", "contrastive")

# Fields measured in [0, 1]; wall_ms is kept out of deterministic output.
RECORD_METRIC_FIELDS = (
    "train_loss",
    "test_map",
    "recall_at_1",
    "recall_at_4",
    "recall_at_16",
    "ap_error",
    "operating_region",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale synthetic dataset request; seed=None means the run seed.

    The defaults put the untrained encoder's open-set mAP near 0.5 with
    headroom both ways: a 16-dimensional shared signal subspace under
    full-dimensional noise of sigma 0.13 per coordinate.
    """

    num_classes: int = 50
    per_class: int = 20
    dim: int = 64
    noise_sigma: float = 0.13
    signal_dim: int | None = 16
    seed: int | None = None


@dataclass(frozen=True)
class CsvSpec:
    """Feature CSV on disk."""

    path: str
    min_per_class: int = 2


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "smooth-ap"
    tau: float | None = DEFAULT_TAU
    batch_size: int = 64
    per_class: int = 4
    steps: int = 2000
    eval_every: int = 200
    lr: float = 1e-4
    weight_decay: float = 4e-5
    seed: int = 0
    data: SyntheticSpec | CsvSpec = field(default_factory=SyntheticSpec)
    test_fraction: float = 0.5
    d_out: int = 16
    hidden_dim: int | None = None
    bias: bool = False
    triplet_margin: float = 0.1
    contrastive_margin: float = 0.5
    grad_threshold: float = DEFAULT_GRAD_THRESHOLD

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.tau is None and self.loss == "smooth-ap":
            raise ValueError("smooth-ap requires a positive tau")
        if self.tau is not None and not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        for name in ("batch_size", "per_class", "eval_every", "d_out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be positive or None, got {self.hidden_dim}")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.lr <= 0 or self.weight_decay < 0:
            raise ValueError("lr must be positive and weight_decay nonnegative")

    @property
    def diagnostics_config(self):
        """Sigmoid config used for AP-error and operating-region logging."""
        tau = self.tau if self.tau is not None else DEFAULT_TAU
        return SmoothApConfig(tau=tau, grad_threshold=self.grad_threshold)


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a training log; every metric lies in [0, 1]."""

    step: int
    train_loss: float
    test_map: float
    recall_at_1: float
    recall_at_4: float
    recall_at_16: float
    ap_error: float
    operating_region: float
    wall_ms: float


@dataclass(frozen=True)
class TrainResult:
    config: TrainConfig
    records: tuple
    params: object

    @property
    def final(self):
        return self.records[-1]


@dataclass(frozen=True)
class GradCheckReport:
    loss: str
    tau: float | None
    fd_step: float
    tolerance: float
    max_rel_error_embedding: float
    max_rel_error_params: float

    @property
    def max_rel_error(self):
        return max(self.max_rel_error_embedding, self.max_rel_error_params)

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance


def build_dataset(spec, fallback_seed):
    if isinstance(spec, CsvSpec):
        return load_features_csv(spec.path, min_per_class=spec.min_per_class)
    seed = spec.seed if spec.seed is not None else fallback_seed
    return gen_synthetic_clusters(
        spec.num_classes, spec.per_class, spec.dim, spec.noise_sigma, seed,
        signal_dim=spec.signal_dim,
    )


def _loss_for(cfg, batch):
    if cfg.loss == "smooth-ap":
        return smooth_ap_loss(batch, SmoothApConfig(cfg.tau, cfg.grad_threshold))
    if cfg.loss == "triplet":
        return triplet_loss(batch, TripletConfig(margin=cfg.triplet_margin))
    return contrastive_loss(batch, margin=cfg.contrastive_margin)


def evaluate_encoder(params, dataset, ks=(1, 4, 16)):
    """Test-split retrieval quality of an encoder: mAP and Recall@K."""
    return map_and_recall(encode(dataset.features, dataset.class_ids, params), ks)


def measure(step, loss_value, batch, params, test_ds, diag, started):
    """One log record: the loss on a training batch, test-split retrieval
    quality of params, and the diag (SmoothApConfig) AP-error and
    operating-region diagnostics of the batch."""
    test_map, recalls = evaluate_encoder(params, test_ds)
    return ExperimentRecord(
        step=step,
        train_loss=float(loss_value),
        test_map=test_map,
        recall_at_1=recalls[1],
        recall_at_4=recalls[4],
        recall_at_16=recalls[16],
        ap_error=batch_ap_error(batch, diag),
        operating_region=batch_operating_region(batch, diag),
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )


def _sampled(dataset, batch_size, per_class, seed):
    """Endless class-balanced row-index batches from one sampler stream."""
    sampler_cfg = SamplerConfig(batch_size, per_class, seed)
    state = SamplerState(seed=seed)
    while True:
        idx, state = next_batch(dataset, sampler_cfg, state)
        yield idx


def _train_steps(dataset, batches, params, opt, loss_fn):
    """The training step: encode -> loss -> backward -> Adam.

    For each row-index array in batches, yields (batch, loss output,
    params) before the update, so the caller measures the parameters that
    produced the loss; the update runs when the caller asks for the next
    step. A loss_fn returning None skips the update.

    A diverging run raises FloatingPointError naming the step: a
    non-finite loss, or an update that leaves a parameter array with a
    non-finite norm (past that, encoding overflows).
    """
    for step, idx in enumerate(batches):
        batch = encode(dataset.features[idx], dataset.class_ids[idx], params)
        out = loss_fn(batch)
        if out is not None and not np.isfinite(out.loss):
            raise FloatingPointError(f"step {step}: training diverged, loss is {out.loss}")
        yield batch, out, params
        if out is not None:
            grads = encode_backward(dataset.features[idx], params, out.embedding_grad)
            params, opt = adam_step(params, grads, opt)
            with np.errstate(over="ignore", invalid="ignore"):
                for name, array in param_arrays(params).items():
                    norm = np.linalg.norm(array)
                    if not np.isfinite(norm):
                        raise FloatingPointError(
                            f"step {step}: training diverged, the update left {name} "
                            f"with norm {norm}"
                        )


def train(cfg):
    """Run the sample -> encode -> loss -> update loop.

    Emits a record at step 0, every eval_every steps, and at the final
    step, whose record is taken on one more sampled probe batch with the
    trained parameters. The test split is class-disjoint from the
    training split.
    """
    dataset = build_dataset(cfg.data, cfg.seed)
    train_ds, test_ds = split_by_class(dataset, cfg.test_fraction, cfg.seed)
    params = init_encoder(
        train_ds.dim, cfg.d_out, seed=cfg.seed, bias=cfg.bias, hidden_dim=cfg.hidden_dim
    )
    opt = AdamState.initial(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = _sampled(train_ds, cfg.batch_size, cfg.per_class, cfg.seed)
    started = time.perf_counter()
    records = []
    steps = _train_steps(train_ds, batches, params, opt, partial(_loss_for, cfg))
    for step, (batch, out, params) in enumerate(steps):
        if step % cfg.eval_every == 0 or step == cfg.steps:
            records.append(
                measure(step, out.loss, batch, params, test_ds, cfg.diagnostics_config, started)
            )
        if step == cfg.steps:
            break
    return TrainResult(config=cfg, records=tuple(records), params=params)


_ABLATION_FIELDS = {f.name for f in fields(TrainConfig)}


def ablate(base_cfg, param, values):
    """One training run per grid value, varying exactly that parameter.

    Returns rows of (value, final ExperimentRecord, TrainResult).
    """
    if param not in _ABLATION_FIELDS:
        raise ValueError(f"unknown ablation parameter {param!r}")
    if not values:
        raise ValueError("values must list at least one value")
    rows = []
    for value in values:
        result = train(replace(base_cfg, **{param: value}))
        rows.append((value, result.final, result))
    return rows


def _max_rel_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def _fd_grad(fn, x, step):
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    base = x.astype(np.float64).copy()
    for i in range(base.size):
        orig = base.reshape(-1)[i]
        base.reshape(-1)[i] = orig + step
        up = fn(base)
        base.reshape(-1)[i] = orig - step
        down = fn(base)
        base.reshape(-1)[i] = orig
        flat[i] = (up - down) / (2.0 * step)
    return grad


def grad_check(
    loss="smooth-ap",
    m=16,
    d=8,
    tau=1.0,
    fd_step=1e-6,
    tolerance=1e-5,
    seed=0,
    d_in=12,
):
    """Compare analytic gradients against central finite differences.

    Checks both the loss gradient w.r.t. the embedding rows and, through
    the encoder, w.r.t. the parameters. The relative error is the max
    absolute gap scaled by the larger gradient magnitude.
    """
    loss_output = partial(_loss_for, TrainConfig(loss=loss, tau=tau))
    rng = np.random.default_rng(seed)
    per_class = 4
    if m % per_class != 0:
        raise ValueError(f"m={m} must be a multiple of {per_class}")
    class_ids = np.repeat(np.arange(m // per_class), per_class)

    # Embedding-level check.
    x = rng.normal(size=(m, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    out = loss_output(EmbeddingBatch(x, class_ids))
    fd_embed = _fd_grad(
        lambda v: loss_output(EmbeddingBatch.from_raw(v, class_ids)).loss, x, fd_step
    )
    err_embed = _max_rel_error(out.embedding_grad, fd_embed)

    # Parameter-level check through the encoder.
    feats = rng.normal(size=(m, d_in))
    params = init_encoder(d_in, d, seed=seed)
    batch = encode(feats, class_ids, params)
    analytic = encode_backward(feats, params, loss_output(batch).embedding_grad)["weight"]
    fd_params = _fd_grad(
        lambda w: loss_output(encode(feats, class_ids, EncoderParams(weight=w))).loss,
        params.weight,
        fd_step,
    )
    err_params = _max_rel_error(analytic, fd_params)
    return GradCheckReport(
        loss=loss,
        tau=tau if loss == "smooth-ap" else None,
        fd_step=fd_step,
        tolerance=tolerance,
        max_rel_error_embedding=err_embed,
        max_rel_error_params=err_params,
    )


def approx_error_sweep(dataset, taus=(0.1, 0.01, 0.001), steps=20, *, batch_size=64,
                       per_class=4, d_out=16, lr=1e-5, weight_decay=4e-5, seed=0):
    """Per-temperature AP approximation error along a training trajectory.

    For each temperature, a fresh encoder trains with the smoothed-AP loss
    at that temperature and the per-batch error is logged before every
    update. Returns {tau: [error per step]}.
    """
    if not taus:
        raise ValueError("taus must list at least one temperature")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    out = {}
    for cfg in [SmoothApConfig(tau) for tau in taus]:
        params = init_encoder(dataset.dim, d_out, seed=seed)
        opt = AdamState.initial(params, lr=lr, weight_decay=weight_decay)
        batches = islice(_sampled(dataset, batch_size, per_class, seed), steps)
        loss_fn = partial(smooth_ap_loss, cfg=cfg)
        out[cfg.tau] = [
            batch_ap_error(batch, cfg)
            for batch, _, _ in _train_steps(dataset, batches, params, opt, loss_fn)
        ]
    return out


def operating_region_sweep(dataset, batch_sizes=(32, 64, 128, 256), *, tau=DEFAULT_TAU,
                           grad_threshold=DEFAULT_GRAD_THRESHOLD, d_out=16,
                           lr=0.6, weight_decay=4e-5, seed=0, repeats=16):
    """Mean operating-region fraction per batch size across one epoch of
    training with the smoothed-AP loss, all else held fixed.

    One epoch means the shuffled dataset sliced into len(dataset) // B
    consecutive mini-batches; each batch's fraction is measured before its
    update, and a fresh encoder trains through every epoch. Within a
    repeat, every batch size sees the same shuffle and the same encoder
    init (common random numbers), so the comparison isolates the
    batch-size effect. Batches with no positive pair (always the case for
    B=1) are measured but cannot train. The epoch is repeated with fresh
    shuffles and inits and the fractions averaged.

    The learning rate deliberately compresses a meaningful amount of
    training into one desk-scale epoch (a thousand instances); at tiny
    rates the epoch is equivalent to a frozen encoder and the batch-size
    trend washes out.
    """
    cfg = SmoothApConfig(tau, grad_threshold)
    if not batch_sizes:
        raise ValueError("batch_sizes must list at least one batch size")
    for b in batch_sizes:
        if b < 1 or b > len(dataset):
            raise ValueError(f"batch size {b} out of range for dataset of {len(dataset)}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    orders = [
        np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, rep]).permutation(len(dataset))
        for rep in range(repeats)
    ]

    def loss_fn(batch):
        _, counts = np.unique(batch.class_ids, return_counts=True)
        if not (counts >= 2).any():
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return smooth_ap_loss(batch, cfg, allow_degenerate=True)

    out = {}
    for b in batch_sizes:
        fractions = []
        for rep in range(repeats):
            params = init_encoder(dataset.dim, d_out, seed=seed + rep)
            opt = AdamState.initial(params, lr=lr, weight_decay=weight_decay)
            batches = (orders[rep][i * b : (i + 1) * b] for i in range(max(1, len(dataset) // b)))
            fractions.extend(
                batch_operating_region(batch, cfg)
                for batch, _, _ in _train_steps(dataset, batches, params, opt, loss_fn)
            )
        out[b] = float(np.mean(fractions))
    return out


def loss_timing(batch_sizes, *, per_class=4, d_out=16, tau=DEFAULT_TAU, repeats=7,
                warmup=2, seed=0):
    """Minimum wall time (ms) of the smoothed-AP loss per batch size.

    Uses random unit embeddings with per_class instances per class, warmup
    evaluations per size, then the minimum of the timed repeats: other
    processes on the machine only ever add time, so the fastest repeat is
    the one closest to the loss's own cost. The sizes are timed
    round-robin within each repeat so a transient system stall lands on
    every size of that repeat rather than skewing one of them.
    """
    cfg = SmoothApConfig(tau)
    rng = np.random.default_rng(seed)
    batches = {}
    for m in batch_sizes:
        if m < 2 or m % per_class != 0:
            raise ValueError(f"batch size {m} must be a multiple of per_class {per_class}")
        x = rng.normal(size=(m, d_out))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        batches[m] = EmbeddingBatch(x, np.repeat(np.arange(m // per_class), per_class))
    times = {m: [] for m in batch_sizes}
    for m in batch_sizes:
        for _ in range(warmup):
            smooth_ap_loss(batches[m], cfg)
    for _ in range(repeats):
        for m in batch_sizes:
            t0 = time.perf_counter()
            smooth_ap_loss(batches[m], cfg)
            times[m].append((time.perf_counter() - t0) * 1000.0)
    return {m: min(times[m]) for m in batch_sizes}
