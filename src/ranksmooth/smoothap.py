"""Sigmoid-smoothed average precision and its analytic gradients.

The exact AP counts, for each positive, how many instances outscore it;
those counts are step functions of the scores and give no usable gradient.
Here every step is replaced by a temperature-controlled sigmoid of the
pairwise score difference, which makes the whole quantity differentiable
while converging to exact AP as the temperature goes to zero.

The loss treats every row of an embedding batch as a query against all the
other rows (self excluded) and returns the exact chain-rule gradient
through the smoothed AP, the cosine scores, and the row normalization.
Self-comparison terms are excluded from both the positive and negative
sums: counting the sigmoid of a zero difference would bias every smoothed
rank by 0.5.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import normalize_rows, similarity_backward
from .ranking import (
    _BLOCK_ELEMENTS,
    DegenerateLabelsError,
    DifferenceMatrix,
    _query_blocks,
    _ranked_ap,
    exact_ap,
    queries_with_positives,
)

__all__ = [
    "SmoothApConfig",
    "LossOutput",
    "sigmoid",
    "sigmoid_grad",
    "smooth_ap_query",
    "smooth_ap_loss",
    "ap_approx_error",
    "batch_ap_error",
    "operating_region_fraction",
    "batch_operating_region",
    "operating_region_halfwidth",
]

DEFAULT_TAU = 0.01
DEFAULT_GRAD_THRESHOLD = 0.005

@dataclass(frozen=True)
class SmoothApConfig:
    """Temperature of the smoothing sigmoid and the gradient-magnitude cut
    that defines its operating region."""

    tau: float = DEFAULT_TAU
    grad_threshold: float = DEFAULT_GRAD_THRESHOLD

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.grad_threshold > 0:
            raise ValueError(f"grad_threshold must be positive, got {self.grad_threshold}")


@dataclass(frozen=True)
class LossOutput:
    """Loss value plus its gradients.

    score_grad : (m, m) gradient w.r.t. the pairwise similarity matrix
        (entry [k, j] is d loss / d sim(k, j); diagonal is zero).
    embedding_grad : (m, d) gradient w.r.t. the batch embedding rows,
        taken through the row normalization, so each row of the gradient
        is orthogonal to the corresponding (unit) embedding row.
    """

    loss: float
    score_grad: np.ndarray
    embedding_grad: np.ndarray


def _stable_sigmoid_parts(x, tau):
    z = np.asarray(x, dtype=np.float64) / tau
    t = np.exp(-np.abs(z))
    return z, t


def _sigmoid_and_grad(x, tau, g_out, grad_out, scratch):
    """Fused stable sigmoid and derivative into preallocated buffers.

    One exp, no fresh allocations; the loss evaluates this over
    m^2-sized arrays where both the exp count and allocator traffic are
    the cost.
    """
    inv_tau = 1.0 / tau
    t = np.abs(x, out=scratch)
    t *= -inv_tau
    np.exp(t, out=t)  # exp(-|x| / tau)
    u = np.add(t, 1.0, out=g_out)
    np.divide(1.0, u, out=u)  # 1 / (1 + t), i.e. sigmoid(|x| / tau)
    np.multiply(t, u, out=grad_out)
    grad_out *= u
    grad_out *= inv_tau  # t / (1 + t)^2 / tau, symmetric in x
    # u holds sigmoid(|x|/tau); reflect the negative side: 1 - u.
    np.subtract(1.0, u, out=t)
    np.copyto(u, t, where=x < 0.0)
    return u, grad_out


def sigmoid(x, tau):
    """1 / (1 + exp(-x / tau)), overflow-safe for any |x| / tau.

    Satisfies sigmoid(x) + sigmoid(-x) = 1 exactly in exact arithmetic;
    saturates cleanly to 0.0 / 1.0 in float64 instead of producing NaN.
    Accepts scalars or arrays.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    z, t = _stable_sigmoid_parts(x, tau)
    out = np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return float(out) if np.ndim(x) == 0 else out


def sigmoid_grad(x, tau):
    """Derivative of sigmoid(x, tau) w.r.t. x: G(1 - G) / tau.

    Symmetric in x, maximal at x = 0 where it equals 1 / (4 tau).
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    _, t = _stable_sigmoid_parts(x, tau)
    out = t / ((1.0 + t) ** 2 * tau)
    return float(out) if np.ndim(x) == 0 else out


def smooth_ap_query(scored, cfg):
    """Smoothed AP of one scored set.

    For each positive, the smoothed rank within the positives is one plus
    the sum of sigmoids of score differences against the other positives,
    and the smoothed overall rank additionally sums over the negatives.
    The j = i term is excluded from both sums. Output is in (0, 1] and
    approaches exact_ap as cfg.tau goes to zero. Only the positives' rows
    of the pairwise differences are formed: O(|P| m) per query.
    """
    if not scored.labels.any():
        raise DegenerateLabelsError("cannot compute smoothed AP with no positive labels")
    return float(_smooth_ap_rows(scored.scores[None], scored.labels[None], cfg.tau)[0])


def _smooth_ap_rows(scores, labels, tau):
    """Smoothed AP of each row of (rows, n) scores and labels whose rows all
    hold the same number (at least one) of positives.

    Differences are laid out [row, column, positive] and summed over the
    column axis, which NumPy reduces in the same order for any number of
    rows: left to right in index order for several positives, pairwise
    for one.
    """
    rows, n = scores.shape
    pos = scores[labels].reshape(rows, -1)
    neg = scores[~labels].reshape(rows, n - pos.shape[1])
    g = sigmoid(pos[:, :, None] - pos[:, None, :], tau)
    diag = np.arange(pos.shape[1])
    g[:, diag, diag] = 0.0  # the j = i self term
    numer = 1.0 + g.sum(axis=1)
    denom = numer + sigmoid(neg[:, :, None] - pos[:, None, :], tau).sum(axis=1)
    return np.mean(numer / denom, axis=1)


def smooth_ap_loss(batch, cfg, allow_degenerate=False):
    """Mean over queries of (1 - smoothed AP), with analytic gradients.

    Every batch row queries all the others. Cost is O(m^2) per query row
    restricted to its positives, i.e. O(m^2 * per-class count) overall for
    class-balanced batches.
    """
    x = batch.vectors
    class_ids = batch.class_ids
    m = len(batch)
    unit, norms = normalize_rows(x)
    sims = unit @ unit.T
    valid = queries_with_positives(class_ids, allow_degenerate, "smooth_ap_loss")
    same = class_ids[None, :] == class_ids[:, None]
    num_pos = same.sum(axis=1) - 1
    pos_cols = same.copy()
    np.fill_diagonal(pos_cols, False)  # columns j in P_k for row's query k
    qidx, pidx = np.nonzero(pos_cols & valid[:, None])
    num_queries = int(valid.sum())
    total_rows = qidx.shape[0]

    # One row per (query, positive) pair: differences of the query's
    # scores against the pair's positive instance. Rows arrive grouped by
    # query (np.nonzero is row-major); processing a cache-sized run of
    # whole query groups at a time bounds the working set without
    # changing any result.
    group_starts = np.flatnonzero(np.r_[True, qidx[1:] != qidx[:-1]])
    group_ends = np.r_[group_starts[1:], total_rows]
    rows_budget = max(64, 32768 // max(m, 1))
    max_rows = min(max(rows_budget, int(num_pos.max(initial=0))), total_rows)
    row_frac = np.empty(total_rows)
    score_grad = np.zeros((m, m))
    local = np.arange(total_rows)

    # Block workspace, allocated once per call and reused by every block.
    buf_diff, buf_g, buf_grad, buf_tmp = (np.empty((max_rows, m)) for _ in range(4))
    buf_pos, buf_neg = (np.empty((max_rows, m), dtype=bool) for _ in range(2))

    i = 0
    while i < group_starts.size:
        j = i + 1
        while j < group_starts.size and group_ends[j] - group_starts[i] <= rows_budget:
            j += 1
        lo, hi = group_starts[i], group_ends[j - 1]
        q_blk = qidx[lo:hi]
        p_blk = pidx[lo:hi]
        n_blk = hi - lo
        diff = np.take(sims, q_blk, axis=0, out=buf_diff[:n_blk])
        diff -= sims[q_blk, p_blk][:, None]
        g, gprime = _sigmoid_and_grad(
            diff, cfg.tau, buf_g[:n_blk], buf_grad[:n_blk], buf_tmp[:n_blk]
        )
        pos_blk = np.take(pos_cols, q_blk, axis=0, out=buf_pos[:n_blk])
        neg_blk = np.take(same, q_blk, axis=0, out=buf_neg[:n_blk])
        np.logical_not(neg_blk, out=neg_blk)
        # The j = i self term sits inside pos_blk with G(0) exactly 0.5;
        # subtracting it is cheaper than a per-row column mask.
        numer = 0.5 + np.sum(g, axis=1, where=pos_blk)
        denom = numer + np.sum(g, axis=1, where=neg_blk)
        row_frac[lo:hi] = numer / denom

        # d loss / d diff, folding in d loss / d AP_k = -1/Q and the
        # 1/|P_k| factor of each query's mean over its positives.
        coeff = -1.0 / (num_queries * num_pos[q_blk].astype(np.float64))
        scaled = coeff / denom**2
        dloss_ddiff = buf_tmp[:n_blk]
        np.copyto(dloss_ddiff, (-numer * scaled)[:, None])
        np.copyto(dloss_ddiff, ((denom - numer) * scaled)[:, None], where=pos_blk)
        dloss_ddiff[local[:n_blk], q_blk] = 0.0  # the query's own column
        dloss_ddiff[local[:n_blk], p_blk] = 0.0  # the j = i self term
        dloss_ddiff *= gprime

        # diff[r, j] = sims[k, j] - sims[k, i]: row r adds +1 to its
        # query's column j and -1 at the unique (k, i) center.
        score_grad[qidx[group_starts[i:j]]] = np.add.reduceat(
            dloss_ddiff, group_starts[i:j] - lo, axis=0
        )
        score_grad[q_blk, p_blk] -= dloss_ddiff.sum(axis=1)
        i = j

    ap_per_query = np.bincount(qidx, weights=row_frac, minlength=m)[valid] / num_pos[valid]
    loss = float(np.mean(1.0 - ap_per_query))
    embedding_grad = similarity_backward(unit, norms, score_grad)
    return LossOutput(loss=loss, score_grad=score_grad, embedding_grad=embedding_grad)


def ap_approx_error(scored, cfg):
    """Absolute gap between the smoothed and the exact AP of one query."""
    return abs(smooth_ap_query(scored, cfg) - exact_ap(scored))


def batch_ap_error(batch, cfg, allow_degenerate=False):
    """Mean per-query AP approximation error over a batch (self excluded),
    a block of query rows that share a positive count at a time."""
    valid = queries_with_positives(batch.class_ids, allow_degenerate, "batch_ap_error")
    errors = np.empty(np.count_nonzero(valid))
    m = len(batch)
    for at, scores, labels in _query_blocks(batch, valid, lambda num_pos: num_pos * (m - 1)):
        exact = _ranked_ap(scores, labels)[1]
        errors[at] = np.abs(_smooth_ap_rows(scores, labels, cfg.tau) - exact)
    return float(np.mean(errors))


def operating_region_fraction(d, cfg):
    """Fraction of difference-matrix entries whose sigmoid derivative
    exceeds the threshold, diagonal included."""
    values = d.values if isinstance(d, DifferenceMatrix) else np.asarray(d, dtype=np.float64)
    return float(np.mean(sigmoid_grad(values, cfg.tau) > cfg.grad_threshold))


def batch_operating_region(batch, cfg):
    """Mean operating-region fraction over each query's difference matrix.

    Each batch row's score vector (self included, matching the m x m
    difference matrix of the batch) yields one fraction; the batch value
    is their mean.

    Uses the equivalence |dG/dD| > threshold  <=>  |D| < halfwidth (the
    sigmoid derivative is strictly decreasing in |D|), counting close
    pairs on sorted scores instead of materializing every m x m matrix;
    agrees with operating_region_fraction per query.
    """
    halfwidth = operating_region_halfwidth(cfg)
    if halfwidth == 0.0:
        return 0.0
    sims = batch.vectors @ batch.vectors.T
    m = len(batch)
    close = np.empty(m, dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // (2 * m))
    for start in range(0, m, step):
        rows = np.sort(sims[start : start + step], axis=1)
        # Per row, the pairs (i, j) with row_j < row_i + halfwidth minus
        # those with row_j <= row_i - halfwidth.
        close[start : start + step] = (
            _count_below(rows, rows + halfwidth, before_ties=True)
            - _count_below(rows, rows - halfwidth, before_ties=False)
        )
    return float(np.mean(close / (m * m)))


def _count_below(rows, thresholds, before_ties):
    """Per row, the sum over thresholds t of the number of row values below
    t, or at most t when ties go after: the sum of searchsorted's "left" or
    "right" positions.

    rows and thresholds are (r, m) and sorted along each row. One stable
    merge sort places each threshold among the values, before or after
    equal ones by its side of the concatenation; the i-th threshold then
    sits at (values counted) + i, and the i terms sum to m (m - 1) / 2.
    """
    m = rows.shape[1]
    pair = (thresholds, rows) if before_ties else (rows, thresholds)
    order = np.argsort(np.concatenate(pair, axis=1), axis=1, kind="stable")
    is_threshold = order < m if before_ties else order >= m
    return is_threshold @ np.arange(2 * m) - m * (m - 1) // 2


@lru_cache
def operating_region_halfwidth(cfg, max_iter=200):
    """Half-width of the score-difference interval with non-negligible
    gradient, found by bisection on sigmoid_grad(x) = grad_threshold.

    Returns 0.0 when even the peak derivative 1/(4 tau) is at or below the
    threshold (empty region). The config is frozen, so the bisection runs
    once per config and later calls return the memoized float.
    """
    if sigmoid_grad(0.0, cfg.tau) <= cfg.grad_threshold:
        return 0.0
    lo, hi = 0.0, cfg.tau
    while sigmoid_grad(hi, cfg.tau) > cfg.grad_threshold:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the operating-region edge")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if sigmoid_grad(mid, cfg.tau) > cfg.grad_threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
