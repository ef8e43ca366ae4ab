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

The loss, the batch AP error and smooth_ap_query share one forward pass,
_smooth_ap_block, over the query blocks of ranking._query_blocks (queries
that share a positive count): a [row, positive, column] block of sigmoids
and their derivatives from one stable evaluator, _sigmoid_parts. The loss
takes its backward pass in the same block. The operating region's
half-width is in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import normalize_rows, product, similarity_backward
from .ranking import (
    _BLOCK_ELEMENTS,
    DegenerateLabelsError,
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
    "batch_operating_region",
    "operating_region_halfwidth",
]


@dataclass(frozen=True)
class SmoothApConfig:
    """Temperature of the smoothing sigmoid and the gradient-magnitude cut
    that defines its operating region."""

    tau: float = 0.01
    grad_threshold: float = 0.005

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


def _sigmoid_parts(x, tau):
    """sigmoid(x, tau) and sigmoid_grad(x, tau) of a float64 array x, from
    one exp(-|x| / tau) written over a private copy of x."""
    inv_tau = 1.0 / tau
    t = np.abs(x, dtype=np.float64)
    t *= -inv_tau
    np.exp(t, out=t)
    g = np.add(t, 1.0)
    np.divide(1.0, g, out=g)  # sigmoid(|x| / tau), in [0.5, 1]
    t *= g
    t *= g
    t *= inv_tau  # exp(-|x| / tau) / (1 + exp(-|x| / tau))^2 / tau, even in x
    # Reflect the negative side without a masked ufunc: 0.5 + (g - 0.5)
    # is g and 0.5 - (g - 0.5) is 1 - g, each rounded exactly.
    g -= 0.5
    np.copysign(g, x, out=g)
    g += 0.5
    return g, t


def sigmoid(x, tau):
    """1 / (1 + exp(-x / tau)), overflow-safe for any |x| / tau.

    Satisfies sigmoid(x) + sigmoid(-x) = 1 exactly in exact arithmetic;
    saturates cleanly to 0.0 / 1.0 in float64 instead of producing NaN.
    Accepts scalars or arrays.
    """
    out = _sigmoid_parts(np.atleast_1d(x), SmoothApConfig(tau).tau)[0]
    return float(out[0]) if np.ndim(x) == 0 else out


def sigmoid_grad(x, tau):
    """Derivative of sigmoid(x, tau) w.r.t. x: G(1 - G) / tau.

    Symmetric in x, maximal at x = 0 where it equals 1 / (4 tau).
    """
    out = _sigmoid_parts(np.atleast_1d(x), SmoothApConfig(tau).tau)[1]
    return float(out[0]) if np.ndim(x) == 0 else out


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
    numer, denom = _smooth_ap_block(scored.scores[None], scored.labels[None], cfg.tau)[:2]
    return float(np.mean(numer / denom))


def _smooth_ap_block(scores, labels, tau):
    """The smoothed-AP forward pass of (rows, n) scores and labels whose
    rows all hold the same number (at least one) of positives.

    Each row's differences are one (|P|, n) block scores[j] - scores[i]
    for its positives i, column axis innermost. Returns numer and denom,
    the (rows, |P|) smoothed ranks within the positives and overall (the
    row's smoothed AP is mean(numer / denom) over its positives), the
    (rows, |P|, n) sigmoids g and derivatives gprime with the j = i self
    terms zeroed, and pos_at, the (rows, |P|) positive columns.
    """
    rows = np.arange(len(scores))[:, None]
    pos_at = (np.flatnonzero(labels) % labels.shape[1]).reshape(len(scores), -1)
    pos = np.arange(pos_at.shape[1])
    g, gprime = _sigmoid_parts(scores[:, None, :] - scores[rows, pos_at][:, :, None], tau)
    g[rows, pos, pos_at] = gprime[rows, pos, pos_at] = 0.0  # the j = i self term
    numer = 1.0 + g[rows[:, :, None], pos[:, None], pos_at[:, None, :]].sum(axis=2)
    denom = 1.0 + g.sum(axis=2)
    return numer, denom, g, gprime, pos_at


def smooth_ap_loss(batch, cfg, allow_degenerate=False):
    """Mean over queries of (1 - smoothed AP), with analytic gradients.

    Every batch row queries all the others. Cost is O(m^2) per query row
    restricted to its positives, i.e. O(m^2 * per-class count) overall for
    class-balanced batches. Queries that share a positive count form
    (rows, |P|, m - 1) blocks of differences (_smooth_ap_block), and the
    backward pass runs in the same blocks. A row with no positive raises
    DegenerateQueryError, as in every batch kernel, unless allow_degenerate
    leaves it out silently.
    """
    m = len(batch)
    unit, norms = normalize_rows(batch.vectors)
    num_pos = queries_with_positives(batch.class_ids, allow_degenerate)
    ap = np.empty(np.count_nonzero(num_pos))
    score_grad = np.zeros((m, m))
    for at, where, scores, labels in _query_blocks(unit, batch.class_ids, num_pos, lambda p: p * (m - 1)):
        numer, denom, g, gprime, pos_at = _smooth_ap_block(scores, labels, cfg.tau)
        ap[at] = np.mean(numer / denom, axis=1)

        # d loss / d G[r, i, j] is numer c on every column and -denom c more
        # on the positive columns, with c = 1 / (Q |P| denom^2) folding in
        # d loss / d AP = -1/Q and each query's mean over its positives.
        rows, pos = np.arange(at.size)[:, None], np.arange(pos_at.shape[1])
        c = 1.0 / (ap.size * pos.size * denom**2)
        neg_w, pos_w = numer * c, -denom * c
        gprime_pos = gprime[rows[:, :, None], pos[:, None], pos_at[:, None, :]]
        col_grad = (neg_w[:, None, :] @ gprime)[:, 0]
        # diff[r, i, j] = s[j] - s[pos_at[i]]: column j gains, positive i
        # loses its row sum.
        col_grad[rows, pos_at] += (pos_w[:, None, :] @ gprime_pos)[:, 0] - (
            neg_w * gprime.sum(axis=2) + pos_w * gprime_pos.sum(axis=2)
        )
        score_grad[where] = col_grad

    loss = float(np.mean(1.0 - ap))
    embedding_grad = similarity_backward(unit, norms, score_grad)
    return LossOutput(loss=loss, score_grad=score_grad, embedding_grad=embedding_grad)


def ap_approx_error(scored, cfg):
    """Absolute gap between the smoothed and the exact AP of one query."""
    return abs(smooth_ap_query(scored, cfg) - exact_ap(scored))


def batch_ap_error(batch, cfg):
    """Mean per-query AP approximation error over a batch (self excluded),
    a block of query rows that share a positive count at a time."""
    num_pos = queries_with_positives(batch.class_ids)
    errors = np.empty(np.count_nonzero(num_pos))
    m = len(batch)
    for at, _, scores, labels in _query_blocks(batch.vectors, batch.class_ids, num_pos,
                                               lambda p: p * (m - 1)):
        numer, denom = _smooth_ap_block(scores, labels, cfg.tau)[:2]
        errors[at] = np.abs(np.mean(numer / denom, axis=1) - _ranked_ap(scores, labels)[1])
    return float(np.mean(errors))


def batch_operating_region(batch, cfg):
    """Mean operating-region fraction over each query's difference matrix.

    Each batch row's score vector (self included, matching the m x m
    difference matrix of the batch) yields one fraction; the batch value
    is their mean.

    Uses the equivalence |dG/dD| > threshold  <=>  |D| < halfwidth (the
    sigmoid derivative is strictly decreasing in |D|), counting close
    pairs on sorted scores instead of materializing every m x m matrix.
    """
    halfwidth = operating_region_halfwidth(cfg)
    if halfwidth == 0.0:
        return 0.0
    sims = product(batch.vectors, batch.vectors.T)
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


def operating_region_halfwidth(cfg):
    """Half-width of the score-difference interval with non-negligible
    gradient: the x > 0 where sigmoid_grad(x) equals grad_threshold.

    Returns 0.0 when even the peak derivative 1/(4 tau) is at or below the
    threshold (empty region). Otherwise, with theta the threshold,
    G(1 - G) = tau theta at the edge, so q = 1 - G is the small root
    2 tau theta / (1 + sqrt(1 - 4 tau theta)), a form without cancellation,
    and x = tau log((1 - q) / q).
    """
    if sigmoid_grad(0.0, cfg.tau) <= cfg.grad_threshold:
        return 0.0
    product = cfg.tau * cfg.grad_threshold
    q = 2.0 * product / (1.0 + math.sqrt(1.0 - 4.0 * product))
    return cfg.tau * (math.log1p(-q) - math.log(q))
