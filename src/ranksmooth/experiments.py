"""Training loop, ablation grids, gradient checks, and diagnostic sweeps.

Every fact needed to reproduce a run lives in TrainConfig, which train
and both sweeps pass to _train_steps; all randomness flows from its seed
through explicit streams (encoder init, batch sampler), so identical
configs produce bit-identical metric logs. Wall times are recorded
alongside but are the one intentionally non-repeatable quantity. The
independent runs of an ablation or a sweep spread over one forked worker
per usable core (_map_runs) with the same results.
"""

import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice

import numpy as np

from .baselines import TripletConfig, contrastive_loss, triplet_loss
from .data import (
    SamplerConfig,
    SamplerState,
    SyntheticSpec,
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
from .ranking import DegenerateQueryError, EmbeddingBatch, map_and_recall
from .smoothap import (
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
]

LOSS_KINDS = ("smooth-ap", "triplet", "contrastive")


@dataclass(frozen=True)
class CsvSpec:
    """Feature CSV on disk."""

    path: str


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "smooth-ap"
    tau: float = SmoothApConfig.tau
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
    triplet_margin: float = TripletConfig.margin
    contrastive_margin: float = 0.5
    grad_threshold: float = SmoothApConfig.grad_threshold

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        for name in ("eval_every", "d_out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be positive or None, got {self.hidden_dim}")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        # The configs this one feeds check their own fields, so a bad value
        # fails here and not at the first training step.
        self.smooth_ap
        self.sampler
        if self.per_class < 2:
            raise ValueError(f"per_class must be at least 2, got {self.per_class}: a batch with "
                             f"one instance per class gives no query a positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.loss != "smooth-ap" and self.batch_size == self.per_class:
            raise ValueError(f"loss {self.loss} needs a negative for every query, but a batch "
                             f"of batch_size = per_class = {self.per_class} holds one class")
        for name in ("triplet_margin", "contrastive_margin"):
            try:
                TripletConfig(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

    @property
    def smooth_ap(self):
        """The smoothed-AP loss's sigmoid config; every loss also logs its
        AP-error and operating-region diagnostics with it."""
        return SmoothApConfig(self.tau, self.grad_threshold)

    @property
    def sampler(self):
        """The class-balanced batch sampler's config."""
        return SamplerConfig(self.batch_size, self.per_class)


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


# Fields measured in [0, 1]; wall_ms is kept out of deterministic output.
RECORD_METRIC_FIELDS = tuple(
    f.name for f in fields(ExperimentRecord) if f.name not in ("step", "wall_ms")
)


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


def build_dataset(spec, seed):
    if isinstance(spec, CsvSpec):
        return load_features_csv(spec.path)
    return gen_synthetic_clusters(
        spec.num_classes, spec.per_class, spec.dim, spec.noise_sigma, seed,
        signal_dim=spec.signal_dim,
    )


def _loss_for(cfg, batch):
    if cfg.loss == "smooth-ap":
        return smooth_ap_loss(batch, cfg.smooth_ap)
    if cfg.loss == "triplet":
        return triplet_loss(batch, TripletConfig(margin=cfg.triplet_margin))
    return contrastive_loss(batch, margin=cfg.contrastive_margin)


def measure(step, loss_value, batch, test_batch, diag, started):
    """One log record: the loss on a training batch, the mAP and Recall@K
    of test_batch (the encoded test split), and the diag (SmoothApConfig)
    AP-error and operating-region diagnostics of the training batch."""
    if len(test_batch) <= 16:
        raise ValueError(f"the evaluated set has {len(test_batch)} rows; Recall@16 needs at least 17")
    test_map, recalls = map_and_recall(test_batch, (1, 4, 16))
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


def _sampled(dataset, cfg):
    """Endless class-balanced row-index batches from cfg's sampler stream."""
    sampler, state = cfg.sampler, SamplerState(seed=cfg.seed)
    while True:
        idx, state = next_batch(dataset, sampler, state)
        yield idx


def _train_steps(dataset, batches, cfg, loss_fn=None):
    """The run recipe: cfg's fresh encoder and Adam state, then per batch
    the training step encode -> loss (cfg's unless loss_fn) -> backward ->
    Adam. For each row-index array in batches, yields (batch, loss output,
    params) before the update, so the caller measures the parameters that
    produced the loss; the update runs when the caller asks for the next
    step. A loss_fn returning None skips the update.

    A diverging run raises FloatingPointError naming the step: a
    non-finite loss, or an update that leaves a parameter array with a
    non-finite norm (past that, encoding overflows).
    """
    params = init_encoder(dataset.dim, cfg.d_out, cfg.seed, cfg.bias, cfg.hidden_dim)
    opt = AdamState.initial(params, cfg.lr, cfg.weight_decay)
    loss_fn = loss_fn or partial(_loss_for, cfg)
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
    started = time.perf_counter()
    records = []
    steps = _train_steps(train_ds, _sampled(train_ds, cfg), cfg)
    for step, (batch, out, params) in enumerate(steps):
        if step % cfg.eval_every == 0 or step == cfg.steps:
            test_batch = encode(test_ds.features, test_ds.class_ids, params)
            records.append(measure(step, out.loss, batch, test_batch, cfg.smooth_ap, started))
        if step == cfg.steps:
            break
    return TrainResult(config=cfg, records=tuple(records), params=params)


def _usable_cores():
    """The cores this process may run on, as the manifest records them."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# A forked worker's run and task list, set by _adopt in the worker only.
_worker_job = None


def _adopt(run, tasks):
    global _worker_job
    _worker_job = run, tasks


def _run_task(i):
    run, tasks = _worker_job
    return run(tasks[i])


def _map_runs(run, tasks):
    """[run(task) for task in tasks], spread over one forked worker per
    usable core.

    Each run is a pure function of its task (its config and seed stream),
    and linalg.product keeps every product on the worker's one thread, so
    the results are bit-identical to the serial loop's. The workers
    inherit run and tasks through fork, so a closure serves; results and
    exceptions come back pickled. Once every worker is joined, the first
    failing task in task order raises, as in the serial loop. Runs
    serially with one usable core or one task, and off Linux.

    Every worker forks before the pool starts its manager thread, and
    OpenBLAS stops its idle threads around fork(), so the process that
    forks runs one thread.
    """
    workers = min(len(tasks), _usable_cores())
    if workers < 2 or sys.platform != "linux":
        return [run(task) for task in tasks]
    # Imported here, so that the single-run commands never pay for it.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"), initializer=_adopt,
                               initargs=(run, tasks))
    try:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


_ABLATION_FIELDS = {f.name for f in fields(TrainConfig)}


def ablate(base_cfg, param, values):
    """One training run per grid value, varying exactly that parameter.

    Every grid config is built, and so checked, before the first run.
    Returns rows of (value, final ExperimentRecord, TrainResult).
    """
    if param not in _ABLATION_FIELDS:
        raise ValueError(f"unknown ablation parameter {param!r}")
    if not values:
        raise ValueError("values must list at least one value")
    configs = [replace(base_cfg, **{param: value}) for value in values]
    results = _map_runs(train, configs)
    return [(value, result.final, result) for value, result in zip(values, results)]


def _max_rel_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def _fd_grad(fn, x, step):
    grad = np.zeros(x.shape)
    for i in range(x.size):
        up, down = x.astype(np.float64), x.astype(np.float64)
        up.flat[i] += step
        down.flat[i] -= step
        grad.flat[i] = (fn(up) - fn(down)) / (2.0 * step)
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


def approx_error_sweep(dataset, taus=(0.1, 0.01, 0.001), steps=20, *,
                       batch_size=TrainConfig.batch_size, per_class=TrainConfig.per_class,
                       d_out=TrainConfig.d_out, lr=1e-5,
                       weight_decay=TrainConfig.weight_decay, seed=0):
    """Per-temperature AP approximation error along a training trajectory.

    For each temperature, a fresh encoder trains with the smoothed-AP loss
    at that temperature and the per-batch error is logged before every
    update. Every run's TrainConfig is checked before the first trains.
    Returns {tau: [error per step]}.
    """
    if not taus:
        raise ValueError("taus must list at least one temperature")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    base = TrainConfig(batch_size=batch_size, per_class=per_class, d_out=d_out, lr=lr,
                       weight_decay=weight_decay, seed=seed)
    configs = [replace(base, tau=tau) for tau in taus]

    def errors(cfg):
        batches = islice(_sampled(dataset, cfg), steps)
        diag = cfg.smooth_ap
        return [batch_ap_error(batch, diag) for batch, _, _ in _train_steps(dataset, batches, cfg)]

    return {cfg.tau: errs for cfg, errs in zip(configs, _map_runs(errors, configs))}


def operating_region_sweep(dataset, batch_sizes=(32, 64, 128, 256), *, tau=TrainConfig.tau,
                           grad_threshold=TrainConfig.grad_threshold, d_out=TrainConfig.d_out,
                           lr=0.6, weight_decay=TrainConfig.weight_decay, seed=0, repeats=16):
    """Mean operating-region fraction per batch size across one epoch of
    training with the smoothed-AP loss, all else held fixed.

    One epoch means the shuffled dataset sliced into len(dataset) // B
    consecutive mini-batches; each batch's fraction is measured before its
    update, and a fresh encoder trains through every epoch. Within a
    repeat, every batch size sees the same shuffle and the same encoder
    init (common random numbers), so the comparison isolates the
    batch-size effect. The loss silently skips rows with no positive, and
    a batch with no positive pair (always the case for B=1) is measured
    but cannot train. The epoch is repeated with fresh shuffles and inits
    and the fractions averaged.

    The learning rate deliberately compresses a meaningful amount of
    training into one desk-scale epoch (a thousand instances); at tiny
    rates the epoch is equivalent to a frozen encoder and the batch-size
    trend washes out. The batch sizes stay outside the TrainConfig, whose
    sampler would reject the legal B=1.
    """
    base = TrainConfig(tau=tau, grad_threshold=grad_threshold, d_out=d_out, lr=lr,
                       weight_decay=weight_decay, seed=seed)
    diag = base.smooth_ap
    if not batch_sizes:
        raise ValueError("batch_sizes must list at least one batch size")
    for b in batch_sizes:
        if b < 1 or b > len(dataset):
            raise ValueError(f"batch size {b} out of range for dataset of {len(dataset)}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    orders = [SamplerState(seed, rep).rng().permutation(len(dataset)) for rep in range(repeats)]

    def loss_fn(batch):
        try:
            return smooth_ap_loss(batch, diag, allow_degenerate=True)
        except DegenerateQueryError:  # no row has a positive
            return None

    def fractions(task):
        b, rep = task
        cfg = replace(base, seed=seed + rep)
        batches = (orders[rep][i * b : (i + 1) * b] for i in range(max(1, len(dataset) // b)))
        return [
            batch_operating_region(batch, diag)
            for batch, _, _ in _train_steps(dataset, batches, cfg, loss_fn)
        ]

    runs = iter(_map_runs(fractions, [(b, rep) for b in batch_sizes for rep in range(repeats)]))
    return {b: float(np.mean([f for _ in range(repeats) for f in next(runs)])) for b in batch_sizes}
