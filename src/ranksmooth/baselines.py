"""Distance-based surrogate losses for head-to-head comparisons.

Triplet and pairwise contrastive losses in cosine-similarity form, sharing
the smoothed-AP loss's gradient plumbing, plus the violating-pair
diagnostic: the (negative, positive) index pairs whose order a perfect
ranking would have to fix. AP reaches 1 exactly when there are none.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import normalize_rows, product, similarity_backward
from .ranking import DegenerateQueryError, _query_blocks, queries_with_positives
from .smoothap import LossOutput

__all__ = ["TripletConfig", "SingleClassBatchError", "triplet_loss", "contrastive_loss",
           "violating_terms"]


@dataclass(frozen=True)
class TripletConfig:
    """Hinge margin of the triplet loss; the contrastive loss checks its
    margin through it too."""

    margin: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")
        if self.margin < 0:
            raise ValueError(f"margin must be nonnegative, got {self.margin}")


class SingleClassBatchError(DegenerateQueryError):
    """A pair loss's batch holds a single class, so no query has a negative."""

    template = "class {} is the only class in the batch; no query has a negative"


def _check_negatives(class_ids):
    """A pair loss's queries also need a negative: a batch of one class has
    none."""
    if np.all(class_ids == class_ids[0]):
        raise SingleClassBatchError(int(class_ids[0]))


def triplet_loss(batch, cfg):
    """Margin hinge loss over (anchor, positive, negative) triples.

    Scores are cosine similarities to the anchor; each triple contributes
    max(s_neg - s_pos + margin, 0), and the mean runs over every valid
    triple in the batch. Anchors that share a positive count form dense
    (anchors, |P|, |N|) hinge blocks over the query blocks of
    ranking._query_blocks, as the smoothed-AP loss does.
    """
    unit, norms = normalize_rows(batch.vectors)
    sims, _, blocks = _query_blocks(unit, batch.class_ids)
    _check_negatives(batch.class_ids)
    score_grad = np.zeros(sims.shape)
    total, count = 0.0, 0
    for _, flat, labels, (pos, _, _) in blocks:
        # Each anchor's positives and negatives in ascending column order.
        scores, negatives = sims.take(flat), ~labels
        s_neg = scores[negatives].reshape(len(scores), -1)
        hinge = s_neg[:, None, :] - scores.take(pos)[:, :, None] + cfg.margin
        active = hinge > 0
        total += np.maximum(hinge, 0.0).sum()  # logged only, never differentiated
        count += hinge.size
        col_grad = np.empty(scores.shape)
        col_grad.ravel()[pos] = -active.sum(axis=2)
        col_grad[negatives] = active.sum(axis=1).ravel()
        score_grad.ravel()[flat] = col_grad
    total /= count
    score_grad /= count

    embedding_grad = similarity_backward(unit, norms, score_grad)
    return LossOutput(loss=float(total), score_grad=score_grad, embedding_grad=embedding_grad)


def contrastive_loss(batch, margin):
    """Pairwise contrastive loss in cosine form.

    Mean over positive pairs of (1 - s) plus mean over negative pairs of
    max(s - margin, 0), each pair counted once (i < j).
    """
    TripletConfig(margin)  # rejects a negative margin
    unit, norms = normalize_rows(batch.vectors)
    queries_with_positives(batch.class_ids)
    _check_negatives(batch.class_ids)
    sims = product(unit, unit.T)
    upper = np.triu(np.ones(sims.shape, dtype=bool), k=1)  # row-major: (i, j), i < j
    same = batch.class_ids[:, None] == batch.class_ids
    pos, neg = same & upper, ~same & upper
    loss = float(np.mean(1.0 - sims[pos]) + np.mean(np.maximum(sims[neg] - margin, 0.0)))

    score_grad = np.zeros(sims.shape)
    score_grad[pos] = -1.0 / np.count_nonzero(pos)
    score_grad[neg & (sims > margin)] = 1.0 / np.count_nonzero(neg)

    embedding_grad = similarity_backward(unit, norms, score_grad)
    return LossOutput(loss=loss, score_grad=score_grad, embedding_grad=embedding_grad)


def violating_terms(scored):
    """All (negative index, positive index) pairs where the negative
    strictly outscores the positive, sorted. Empty exactly when every
    positive outranks every negative (tie-free scores)."""
    labels = scored.labels
    s = scored.scores
    neg_idx = np.nonzero(~labels)[0]
    pos_idx = np.nonzero(labels)[0]
    worse = s[neg_idx][:, None] > s[pos_idx][None, :]
    ni, pj = np.nonzero(worse)
    return sorted((int(neg_idx[a]), int(pos_idx[b])) for a, b in zip(ni, pj))
