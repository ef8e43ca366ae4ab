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

from .linalg import normalize_rows, row_runs, similarity_backward
from .ranking import (
    _BLOCK_ELEMENTS,
    DegenerateLabelsError,
    _positive_index,
    _query_blocks,
    _ranked_ap,
    exact_ap,
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
        for name in ("tau", "grad_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


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
    positives = _positive_index(scored.labels[None])
    numer, denom = _smooth_ap_block(scored.scores[None], positives, cfg.tau)[:2]
    return float(np.mean(numer / denom))


def _smooth_ap_block(scores, positives, tau):
    """The smoothed-AP forward pass of (rows, n) scores whose rows all hold
    the same number (at least one) of positives, given by their
    ranking._positive_index (pos, own, pairs).

    Each row's differences are one (|P|, n) block scores[j] - scores[i]
    for its positives i, column axis innermost. Returns numer and denom,
    the (rows, |P|) smoothed ranks within the positives and overall (the
    row's smoothed AP is mean(numer / denom) over its positives), and the
    (rows, |P|, n) sigmoids g and derivatives gprime with the j = i self
    terms zeroed.
    """
    pos, own, pairs = positives
    g, gprime = _sigmoid_parts(scores[:, None, :] - scores.take(pos)[:, :, None], tau)
    g.ravel()[own] = gprime.ravel()[own] = 0.0  # the j = i self term
    numer = 1.0 + g.take(pairs).sum(axis=2)
    denom = 1.0 + g.sum(axis=2)
    return numer, denom, g, gprime


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
    unit, norms = normalize_rows(batch.vectors)
    sims, queries, blocks = _query_blocks(unit, batch.class_ids, allow_degenerate)
    ap = np.empty(queries)
    score_grad = np.zeros(sims.shape)
    for at, flat, _, positives in blocks:
        numer, denom, g, gprime = _smooth_ap_block(sims.take(flat), positives, cfg.tau)
        ap[at] = np.mean(numer / denom, axis=1)

        # d loss / d G[r, i, j] is numer c on every column and -denom c more
        # on the positive columns, with c = 1 / (Q |P| denom^2) folding in
        # d loss / d AP = -1/Q and each query's mean over its positives.
        pos, _, pairs = positives
        c = 1.0 / (ap.size * pos.shape[1] * denom**2)
        neg_w, pos_w = numer * c, -denom * c
        gprime_pos = gprime.take(pairs)
        col_grad = (neg_w[:, None, :] @ gprime)[:, 0]
        # diff[r, i, j] = s[j] - s[pos[r, i]]: column j gains, positive i
        # loses its row sum. col_grad is C-contiguous, so ravel() is a view.
        col_grad.ravel()[pos] += (pos_w[:, None, :] @ gprime_pos)[:, 0] - (
            neg_w * gprime.sum(axis=2) + pos_w * gprime_pos.sum(axis=2)
        )
        score_grad.ravel()[flat] = col_grad

    loss = float(np.mean(1.0 - ap))
    embedding_grad = similarity_backward(unit, norms, score_grad)
    return LossOutput(loss=loss, score_grad=score_grad, embedding_grad=embedding_grad)


def ap_approx_error(scored, cfg):
    """Absolute gap between the smoothed and the exact AP of one query."""
    return abs(smooth_ap_query(scored, cfg) - exact_ap(scored))


def batch_ap_error(batch, cfg):
    """Mean per-query AP approximation error over a batch (self excluded),
    a block of query rows that share a positive count at a time."""
    sims, queries, blocks = _query_blocks(batch.vectors, batch.class_ids)
    errors = np.empty(queries)
    for at, flat, labels, positives in blocks:
        scores = sims.take(flat)
        numer, denom = _smooth_ap_block(scores, positives, cfg.tau)[:2]
        errors[at] = np.abs(np.mean(numer / denom, axis=1) - _ranked_ap(scores, labels)[1])
    return float(np.mean(errors))


def batch_operating_region(batch, cfg):
    """Mean operating-region fraction over each query's difference matrix.

    Each batch row's score vector (self included, matching the m x m
    difference matrix of the batch) yields one fraction; the batch value
    is their mean.

    Uses the equivalence |dG/dD| > threshold  <=>  |D| < halfwidth (the
    sigmoid derivative is strictly decreasing in |D|), counting close
    pairs on sorted runs of rows (linalg.row_runs), never an m x m matrix.
    """
    halfwidth = operating_region_halfwidth(cfg)
    if halfwidth == 0.0:
        return 0.0
    m = len(batch)
    close = np.empty(m, dtype=np.int64)
    # Half a block budget per run: _count_below merges rows 2m wide.
    for start, rows in row_runs(batch.vectors, batch.vectors.T, _BLOCK_ELEMENTS // 2):
        rows.sort(axis=1)
        # Per row, the pairs (i, j) with row_j < row_i + halfwidth minus
        # those with row_j <= row_i - halfwidth.
        close[start : start + len(rows)] = (
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
