"""Distance-based surrogate losses for head-to-head comparisons.

Triplet and pairwise contrastive losses in cosine-similarity form, sharing
the smoothed-AP loss's gradient plumbing, plus the violating-pair
diagnostic: the (negative, positive) index pairs whose order a perfect
ranking would have to fix. AP reaches 1 exactly when there are none.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import normalize_rows, similarity_backward
from .ranking import DegenerateQueryError, queries_with_positives
from .smoothap import LossOutput

__all__ = ["TripletConfig", "triplet_loss", "contrastive_loss", "violating_terms"]


@dataclass(frozen=True)
class TripletConfig:
    """Hinge margin of the triplet loss."""

    margin: float = 0.1

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError(f"margin must be nonnegative, got {self.margin}")


def triplet_loss(batch, cfg, allow_degenerate=False):
    """Margin hinge loss over (anchor, positive, negative) triples.

    Scores are cosine similarities to the anchor; each triple contributes
    max(s_neg - s_pos + margin, 0), and the mean runs over every valid
    triple in the batch.
    """
    unit, norms = normalize_rows(batch.vectors)
    m = len(batch)
    sims = unit @ unit.T
    usable = queries_with_positives(batch.class_ids, allow_degenerate, "triplet_loss")
    if (batch.class_ids == batch.class_ids[0]).all():  # no anchor has a negative
        raise DegenerateQueryError(int(batch.class_ids[0]))
    same = batch.class_ids[None, :] == batch.class_ids[:, None]
    negatives = ~same
    np.fill_diagonal(same, False)
    # Anchors with |P| positives all have m - 1 - |P| negatives, so the
    # anchors of one class size form one dense (anchors, |P|, |N|) hinge
    # block, each anchor's columns in ascending order.
    num_pos = same.sum(axis=1)
    count = int((num_pos * (m - 1 - num_pos))[usable].sum())
    score_grad = np.zeros((m, m))
    total = 0.0
    for size in np.unique(num_pos[usable]):
        anchors = np.flatnonzero(usable & (num_pos == size))
        pos = np.nonzero(same[anchors])[1].reshape(anchors.size, size)
        neg = np.nonzero(negatives[anchors])[1].reshape(anchors.size, -1)
        s_pos = np.take_along_axis(sims[anchors], pos, axis=1)
        s_neg = np.take_along_axis(sims[anchors], neg, axis=1)
        hinge = s_neg[:, None, :] - s_pos[:, :, None] + cfg.margin
        active = hinge > 0
        total += np.maximum(hinge, 0.0).sum()  # logged only, never differentiated
        score_grad[anchors[:, None], pos] -= active.sum(axis=2)
        score_grad[anchors[:, None], neg] += active.sum(axis=1)
    total /= count
    score_grad /= count

    embedding_grad = similarity_backward(unit, norms, score_grad)
    return LossOutput(loss=float(total), score_grad=score_grad, embedding_grad=embedding_grad)


def contrastive_loss(batch, margin=0.5, allow_degenerate=False):
    """Pairwise contrastive loss in cosine form.

    Mean over positive pairs of (1 - s) plus mean over negative pairs of
    max(s - margin, 0), each pair counted once (i < j).
    """
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    unit, norms = normalize_rows(batch.vectors)
    m = len(batch)
    queries_with_positives(batch.class_ids, allow_degenerate, "contrastive_loss")
    sims = unit @ unit.T
    iu, ju = np.triu_indices(m, k=1)
    pos = batch.class_ids[iu] == batch.class_ids[ju]
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateQueryError(int(batch.class_ids[0]))

    pair_sims = sims[iu, ju]
    neg_hinge = np.maximum(pair_sims[~pos] - margin, 0.0)
    loss = float(np.mean(1.0 - pair_sims[pos]) + np.mean(neg_hinge))

    score_grad = np.zeros((m, m))
    score_grad[iu[pos], ju[pos]] = -1.0 / n_pos
    neg_i, neg_j = iu[~pos], ju[~pos]
    active = pair_sims[~pos] > margin
    score_grad[neg_i[active], neg_j[active]] = 1.0 / n_neg

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
