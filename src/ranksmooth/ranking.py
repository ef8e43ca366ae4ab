"""Exact retrieval mathematics: relevance scores, ranks, AP, mAP, Recall@K.

These are the non-differentiable ground-truth quantities; everything else
in the package is measured against them. All functions are pure and all
reductions run in fixed index order so repeated calls are bit-identical.

Ties are broken by ascending original index (a proper ranking), and every
batch-level evaluation removes the query from its own retrieval set. Every
ranking is read from one stable descending sort (_descending_order), so a
query costs O(m log m) and mean AP over N queries O(N^2 log N). Batch
metrics rank a block of query rows per sort call, with the same numbers as
one query at a time. The losses and the AP-error diagnostic read their
blocks from _query_blocks, with the whole Gram matrix, as read-only index
arrays that depend only on the batch's layout; a training run's batches
share one layout, so these per-step kernels build theirs once. The exact
metrics read the Gram in linalg.row_runs' runs of rows instead, so that an
evaluated set of N rows holds one run of scores at a time, not N^2.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import normalize_rows, product, row_runs

__all__ = [
    "ScoredSet",
    "EmbeddingBatch",
    "DegenerateLabelsError",
    "DegenerateQueryError",
    "exact_ap",
    "mean_ap",
    "recall_at_k",
    "map_and_recall",
    "queries_with_positives",
]

_UNIT_NORM_TOL = 1e-9

# Elements per scratch array of a block of query rows: few full-size blocks
# amortize the per-block overhead that a cache-sized budget pays many times.
_BLOCK_ELEMENTS = 32768

# The batch layouts whose per-positive query blocks stay built (least
# recently used dropped first), and the most index elements one of them
# holds: 8 bytes each, plus a label byte per score, so the cache keeps at
# most about 9 MiB. A run's loss and diagnostics share one layout.
_LAYOUT_CACHE_SIZE = 2
_LAYOUT_CACHE_ELEMENTS = 1 << 19


class DegenerateLabelsError(ValueError):
    """A scored set has no positive labels, so AP is undefined."""


class DegenerateQueryError(ValueError):
    """A batch contains a class with a single instance; its query has an
    empty positive set."""

    template = "class {} has a single instance; its query has no positives"

    def __init__(self, class_id):
        self.class_id = class_id
        super().__init__(self.template.format(class_id))

    def __reduce__(self):  # unpickle from the class id, not the formatted text
        return type(self), (self.class_id,)


@dataclass(frozen=True)
class ScoredSet:
    """Relevance scores paired with binary positivity labels for one query.

    scores : (m,) float array, higher = more relevant (typically cosine
        similarities in [-1, 1], but any finite real scores are accepted;
        NaN or infinity is an error naming the first such index).
    labels : (m,) bool array, True marks members of the positive set.
    """

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=bool)
        if scores.ndim != 1 or labels.ndim != 1:
            raise ValueError("scores and labels must be 1-D")
        if scores.shape[0] != labels.shape[0]:
            raise ValueError(f"length mismatch: {scores.shape[0]} scores, {labels.shape[0]} labels")
        if scores.shape[0] < 1:
            raise ValueError("scored set must contain at least one instance")
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise ValueError(f"score {bad[0]} is {scores[bad[0]]}, expected a finite number")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.scores.shape[0]


@dataclass(frozen=True)
class EmbeddingBatch:
    """L2-normalized embedding rows with integer class labels.

    Queries and retrieval set in one: batch evaluation uses each row in
    turn as the query against all the others.
    """

    vectors: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        class_ids = np.asarray(self.class_ids, dtype=np.int64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D matrix")
        if class_ids.ndim != 1 or class_ids.shape[0] != vectors.shape[0]:
            raise ValueError("class_ids must have one entry per embedding row")
        if vectors.shape[0] < 1:
            raise ValueError("batch must contain at least one row")
        norms = np.linalg.norm(vectors, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL))  # NaN norms too
        if bad.size:
            row = int(bad[0])
            raise ValueError(f"row {row} has norm {norms[row]:.12f}, expected 1 within {_UNIT_NORM_TOL}")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "class_ids", class_ids)

    @classmethod
    def from_raw(cls, vectors, class_ids):
        """Build a batch from unnormalized rows, normalizing each one."""
        unit, _ = normalize_rows(vectors)
        return cls(unit, class_ids)

    def __len__(self):
        return self.vectors.shape[0]


def _descending_order(scores):
    """Positions of scores from highest to lowest along the last axis, ties
    to the lower position: the one ranking every exact metric here is read
    from."""
    return np.argsort(-scores, axis=-1, kind="stable")


def exact_ap(scored):
    """Exact average precision of one scored set.

    Mean over positives of (rank within positives) / (rank within all),
    which equals the mean precision at each hit in the induced ranking.
    Always in (0, 1], and 1 exactly when every positive outranks every
    negative.

    Along the sorted ranking, the k-th positive at position r has
    precision k / r, an exact integer ratio; the ratios are averaged in
    the set's own index order.
    """
    if not scored.labels.any():
        raise DegenerateLabelsError("cannot compute AP with no positive labels")
    return float(_ranked_ap(scored.scores[None], scored.labels[None])[1][0])


def _ranked_ap(scores, labels):
    """Each row's exact AP, and the 0-based rank of its first positive.

    scores, labels : (rows, n) arrays whose rows all hold the same number
    (at least one) of positives, so the positives form (rows, |P|) blocks
    and each row's mean is reduced like a 1-D mean.
    """
    order = _descending_order(scores)
    ranked = np.take_along_axis(labels, order, axis=1)
    hit_at = (np.flatnonzero(ranked) % ranked.shape[1]).reshape(len(labels), -1)  # ascending per row
    # The k-th hit (from 1) at rank r (from 1) has precision k / r.
    precision = np.arange(1, hit_at.shape[1] + 1) / (hit_at + 1)
    by_index = np.argsort(np.take_along_axis(order, hit_at, axis=1), axis=1)
    return hit_at[:, 0], np.mean(np.take_along_axis(precision, by_index, axis=1), axis=1)


def queries_with_positives(class_ids, allow_degenerate=False):
    """Each batch row's positive count: the other rows of its class, which
    are its positives as a query. A count of 0 marks a row with no positive
    set, which is not a query. Also returns the batch's layout, each row's
    class as the index of the class's first row: batches whose rows fall
    into the same classes in the same order share it, whatever the ids.

    The one degenerate-batch rule of every batch kernel: such a row raises
    DegenerateQueryError naming its class, unless allow_degenerate (which
    only smooth_ap_loss passes on) keeps it as a silent 0; a batch with no
    query always raises.
    """
    _, first, inverse, counts = np.unique(class_ids, return_index=True, return_inverse=True,
                                          return_counts=True)
    num_pos = counts[inverse] - 1
    if not (num_pos.any() if allow_degenerate else num_pos.all()):
        raise DegenerateQueryError(int(class_ids[np.argmin(num_pos)]))
    return num_pos, first[inverse]


def mean_ap(batch):
    """Mean AP over the batch, each instance used in turn as the query.

    The query is removed from its own retrieval set. A class with a single
    instance is an error (DegenerateQueryError), never a mean over fewer
    queries.
    """
    return _exact_metrics(batch, ())[0]


def recall_at_k(batch, ks):
    """Fraction of queries with at least one positive in their top k.

    Retrieval is by descending score with index tie-breaking, self
    excluded. Every k must be smaller than the batch size.
    """
    return _exact_metrics(batch, ks)[1]


def map_and_recall(batch, ks):
    """(mean_ap(batch), recall_at_k(batch, ks)), equal to those two calls
    but sorting each query once for both."""
    return _exact_metrics(batch, ks)


def _exact_metrics(batch, ks):
    """Mean AP and {k: Recall@k} over the batch's queries, ranked as
    linalg.row_runs delivers their rows, in runs of at most _BLOCK_ELEMENTS
    scores: a run's rows, grouped by positive count, each with its own
    score at -inf so that it ranks below every other row, which leaves
    every other rank as it is. APs are averaged in query order."""
    m = len(batch)
    ks = [int(k) for k in ks]
    for k in ks:
        if k < 1 or k >= m:
            raise ValueError(f"k={k} must satisfy 1 <= k < batch size {m}")
    num_pos, layout = queries_with_positives(batch.class_ids)
    ap = np.empty(m)
    hits = dict.fromkeys(ks, 0)
    for start, sims in row_runs(batch.vectors, batch.vectors.T, _BLOCK_ELEMENTS):
        rows = np.arange(start, start + len(sims))
        sims[rows - start, rows] = -np.inf
        for p in np.unique(num_pos[rows]):
            at = rows[num_pos[rows] == p]
            labels = layout[at, None] == layout
            labels[np.arange(at.size), at] = False
            first_hit, ap[at] = _ranked_ap(sims[at - start], labels)
            for k in ks:
                hits[k] += int(np.count_nonzero(first_hit < k))
    return float(np.mean(ap)), {k: hits[k] / m for k in ks}


def _query_blocks(vectors, class_ids, allow_degenerate=False):
    """The queries of a batch in blocks of rows that share a positive count.

    vectors are the (m, d) rows of a batch with the given class ids, and
    allow_degenerate is queries_with_positives'. Returns the batch's Gram
    matrix, its number of queries and its blocks, each a tuple (at, flat,
    labels, positives): the block's positions among the queries, the
    (rows, m - 1) flat index of each query's other columns in an (m, m)
    matrix, in index order, whether each of those columns is a positive,
    and the _positive_index of labels. A block holds at most
    max(1, _BLOCK_ELEMENTS // (p (m - 1))) rows of positive count p, for
    the kernels that form (rows, p, m - 1) blocks.

    The blocks come from a cache, as the per-step kernels see one layout
    again and again, when they hold at most _LAYOUT_CACHE_ELEMENTS
    indices: m - 1 for each query's scores and p (p + 2) for its
    positives. Larger ones are built one at a time as they are read.
    """
    num_pos, layout = queries_with_positives(class_ids, allow_degenerate)
    p = num_pos[num_pos > 0]
    if np.sum(layout.size - 1 + p * (p + 2)) <= _LAYOUT_CACHE_ELEMENTS:
        blocks = _cached_blocks(layout.tobytes())
    else:
        blocks = _layout_blocks(layout)
    return product(vectors, vectors.T), np.count_nonzero(num_pos), blocks


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _cached_blocks(layout):
    """The per-positive blocks of a layout given as bytes, built once, with
    read-only arrays."""
    blocks = tuple(_layout_blocks(np.frombuffer(layout, dtype=np.intp)))
    for block in blocks:
        for array in block[:3] + block[3]:
            array.flags.writeable = False
    return blocks


def _layout_blocks(layout):
    """Yields _query_blocks' blocks of a layout."""
    m = layout.size
    num_pos = np.bincount(layout, minlength=m)[layout] - 1
    queries = np.flatnonzero(num_pos)
    num_pos = num_pos[queries]
    cols = np.arange(m - 1)
    for p in np.unique(num_pos):
        group = np.flatnonzero(num_pos == p)
        step = max(1, _BLOCK_ELEMENTS // (int(p) * (m - 1)))
        for start in range(0, group.size, step):
            at = group[start : start + step]
            q = queries[at][:, None]
            others = cols + (cols >= q)  # all but the query's own column
            labels = layout[others] == layout[q]
            yield at, q * m + others, labels, _positive_index(labels)


def _positive_index(labels):
    """Flat indices of a (rows, n) label block's positives, each row with
    the same count p, for the kernels that form a (rows, p, n) block over
    each query's positives: pos, the (rows, p) positives in the (rows, n)
    block; own, the (rows, p) entries [r, i, pos[r, i]] of the (rows, p, n)
    block; and pairs, its (rows, p, p) entries [r, i, pos[r, k]]. Positives
    run in ascending column order."""
    rows, n = labels.shape
    pos = np.flatnonzero(labels).reshape(rows, -1)
    at = pos - n * np.arange(rows)[:, None]  # each positive's column
    lines = n * np.arange(pos.size).reshape(pos.shape)  # the start of each [r, i] line
    return pos, lines + at, lines[:, :, None] + at[:, None, :]
