import numpy as np
import pytest

from helpers import central_difference, max_rel_error, nondegenerate_labelings, random_batch
from ranksmooth.baselines import (
    SingleClassBatchError,
    TripletConfig,
    contrastive_loss,
    triplet_loss,
    violating_terms,
)
from ranksmooth.ranking import DegenerateQueryError, EmbeddingBatch, ScoredSet, exact_ap

WORKED_SCORES = np.array([0.9, 0.8, 0.7, 0.3, 0.85, 0.6, 0.5, 0.4])
WORKED_LABELS = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)


def bruteforce_triplet(batch, margin):
    sims = batch.vectors @ batch.vectors.T
    total, count = 0.0, 0
    m = len(batch)
    for a in range(m):
        for p in range(m):
            if p == a or batch.class_ids[p] != batch.class_ids[a]:
                continue
            for n in range(m):
                if n == a or batch.class_ids[n] == batch.class_ids[a]:
                    continue
                total += max(sims[a, n] - sims[a, p] + margin, 0.0)
                count += 1
    return total / count


class TestTripletLoss:
    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(0)
        for margin in [0.0, 0.1, 0.4]:
            batch = random_batch(rng, 3, 3, 6)
            out = triplet_loss(batch, TripletConfig(margin=margin))
            assert out.loss == pytest.approx(bruteforce_triplet(batch, margin), abs=1e-12)

    def test_single_violating_triple_value(self):
        # Angles chosen so cos similarities to the anchor are 0.8 (positive)
        # and 0.75 (negative): per-triple hinge is 0.75 - 0.8 + 0.1 = 0.05.
        a_pos = np.arccos(0.8)
        a_neg = np.arccos(0.75)
        angles = np.array([0.0, a_pos, a_neg, np.pi])
        vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        batch = EmbeddingBatch(vectors, np.array([0, 0, 1, 1]))
        sims = vectors @ vectors.T
        out = triplet_loss(batch, TripletConfig(margin=0.1))
        want = bruteforce_triplet(batch, 0.1)
        assert out.loss == pytest.approx(want, abs=1e-12)
        assert max(sims[0, 2] - sims[0, 1] + 0.1, 0.0) == pytest.approx(0.05)

    def test_satisfied_margin_zero_loss_zero_grad(self):
        vectors = np.repeat(np.eye(2), 3, axis=0)
        batch = EmbeddingBatch(vectors, np.repeat([0, 1], 3))
        out = triplet_loss(batch, TripletConfig(margin=0.5))
        assert out.loss == 0.0
        assert np.all(out.embedding_grad == 0.0)
        assert np.all(out.score_grad == 0.0)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, 3, 4, 8)
        cfg = TripletConfig(margin=0.1)
        out = triplet_loss(batch, cfg)

        def value(x):
            return triplet_loss(EmbeddingBatch.from_raw(x, batch.class_ids), cfg).loss

        numeric = central_difference(value, batch.vectors, step=1e-6)
        assert max_rel_error(out.embedding_grad, numeric) < 1e-6

    def test_degenerate_class_is_error(self):
        batch = EmbeddingBatch(np.eye(3), np.array([0, 0, 4]))
        with pytest.raises(DegenerateQueryError):
            triplet_loss(batch, TripletConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TripletConfig(margin=-0.1)


class TestContrastiveLoss:
    def test_identical_positive_pair_no_positive_term(self):
        # Identical positive rows and orthogonal negatives beyond the
        # margin leave only zero terms, and the embedding gradient
        # vanishes (identical rows already maximize their similarity).
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        batch = EmbeddingBatch(vectors, np.array([0, 0, 1, 1]))
        out = contrastive_loss(batch, margin=0.5)
        assert out.loss == pytest.approx(0.0, abs=1e-12)
        assert np.abs(out.embedding_grad).max() < 1e-12

    def test_value_matches_enumeration(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, 3, 3, 5)
        margin = 0.3
        sims = batch.vectors @ batch.vectors.T
        pos_terms, neg_terms = [], []
        m = len(batch)
        for i in range(m):
            for j in range(i + 1, m):
                if batch.class_ids[i] == batch.class_ids[j]:
                    pos_terms.append(1.0 - sims[i, j])
                else:
                    neg_terms.append(max(sims[i, j] - margin, 0.0))
        want = float(np.mean(pos_terms) + np.mean(neg_terms))
        assert contrastive_loss(batch, margin=margin).loss == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 3, 4, 8)
        out = contrastive_loss(batch, margin=0.4)

        def value(x):
            return contrastive_loss(EmbeddingBatch.from_raw(x, batch.class_ids), margin=0.4).loss

        numeric = central_difference(value, batch.vectors, step=1e-6)
        assert max_rel_error(out.embedding_grad, numeric) < 1e-6

    def test_negative_margin_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            contrastive_loss(random_batch(rng, 2, 2, 4), margin=-1.0)


@pytest.mark.parametrize(
    "loss",
    [lambda b: triplet_loss(b, TripletConfig()), lambda b: contrastive_loss(b, margin=0.5)],
    ids=["triplet", "contrastive"],
)
def test_pair_loss_one_class_batch_names_the_class(loss):
    # Every row has positives; it is the negatives that are missing.
    batch = EmbeddingBatch.from_raw(np.random.default_rng(7).normal(size=(4, 3)), np.full(4, 44))
    with pytest.raises(SingleClassBatchError, match="^class 44 is the only class in the batch; ") as err:
        loss(batch)
    assert isinstance(err.value, DegenerateQueryError) and err.value.class_id == 44


class TestViolatingTerms:
    def test_worked_arrangement_pairs(self):
        pairs = violating_terms(ScoredSet(WORKED_SCORES, WORKED_LABELS))
        assert pairs == [(4, 1), (4, 2), (4, 3), (5, 3), (6, 3), (7, 3)]

    def test_perfect_ranking_empty(self):
        ss = ScoredSet([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert violating_terms(ss) == []

    def test_reversed_ranking_all_pairs(self):
        p, n = 3, 4
        scores = np.arange(p + n, dtype=float)  # negatives outscore positives
        labels = np.array([True] * p + [False] * n)
        assert len(violating_terms(ScoredSet(scores, labels))) == p * n

    def test_empty_iff_perfect_ap_exhaustive(self):
        rng = np.random.default_rng(7)
        for m in range(2, 8):
            for labels in nondegenerate_labelings(m):
                scores = rng.uniform(size=m)
                ss = ScoredSet(scores, labels)
                assert (len(violating_terms(ss)) == 0) == (exact_ap(ss) == 1.0)
