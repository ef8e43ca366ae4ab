import numpy as np
import pytest

from helpers import precision_at_hit_ap, nondegenerate_labelings, unit_rows, random_batch
from ranksmooth.baselines import TripletConfig, contrastive_loss, triplet_loss
from ranksmooth.ranking import (
    DegenerateLabelsError,
    DegenerateQueryError,
    EmbeddingBatch,
    ScoredSet,
    exact_ap,
    map_and_recall,
    mean_ap,
    recall_at_k,
)
from ranksmooth.smoothap import SmoothApConfig, batch_ap_error, smooth_ap_loss

# The running worked example: instances s0..s3 positive, s4..s7 negative,
# score order s0 > s4 > s1 > s2 > s5 > s6 > s7 > s3.
WORKED_SCORES = np.array([0.9, 0.8, 0.7, 0.3, 0.85, 0.6, 0.5, 0.4])
WORKED_LABELS = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)


class TestScoredSet:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ScoredSet([0.1, 0.2], [True])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScoredSet([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected_by_index(self, bad):
        with pytest.raises(ValueError, match="score 2 is"):
            ScoredSet([0.3, 0.2, bad, 0.1, bad], [True, False, True, False, True])

class TestEmbeddingBatch:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            EmbeddingBatch(np.array([[1.0, 1.0]]), np.array([0]))

    def test_nan_row_rejected_by_index(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row 2"):
            EmbeddingBatch(vectors, np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="row 2"):
            EmbeddingBatch.from_raw(vectors, np.array([0, 0, 1, 1]))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            EmbeddingBatch(np.empty((0, 3)), np.empty(0, int))

    def test_from_raw_normalizes(self):
        batch = EmbeddingBatch.from_raw(np.array([[3.0, 4.0], [0.0, 2.0]]), [0, 1])
        assert np.allclose(np.linalg.norm(batch.vectors, axis=1), 1.0)


class TestExactAp:
    def test_worked_arrangement(self):
        ap = exact_ap(ScoredSet(WORKED_SCORES, WORKED_LABELS))
        assert ap == pytest.approx(35.0 / 48.0, abs=1e-12)

    def test_perfect_ranking(self):
        ss = ScoredSet([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert exact_ap(ss) == 1.0

    def test_single_positive_last(self):
        ss = ScoredSet([0.9, 0.8, 0.7, 0.1], [False, False, False, True])
        assert exact_ap(ss) == pytest.approx(0.25)

    def test_no_positives_is_error(self):
        with pytest.raises(DegenerateLabelsError):
            exact_ap(ScoredSet([0.5, 0.4], [False, False]))

    def test_all_positive_is_one(self):
        assert exact_ap(ScoredSet([0.5, 0.4], [True, True])) == 1.0

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(7)
        for m in range(2, 7):
            for labels in nondegenerate_labelings(m):
                scores = rng.uniform(-1, 1, size=m)
                got = exact_ap(ScoredSet(scores, labels))
                want = precision_at_hit_ap(scores, labels)
                assert got == pytest.approx(want, abs=1e-13)

    def test_oracle_equivalence_with_ties(self):
        rng = np.random.default_rng(11)
        grid = np.array([-0.5, 0.0, 0.5])
        for _ in range(200):
            m = int(rng.integers(2, 8))
            scores = rng.choice(grid, size=m)
            labels = rng.random(m) < 0.5
            if labels.all() or not labels.any():
                continue
            got = exact_ap(ScoredSet(scores, labels))
            want = precision_at_hit_ap(scores, labels)
            assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("transform", [lambda s: 2.0 * s + 3.0, lambda s: s**3])
    def test_monotone_transform_invariance(self, transform):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(3, 20))
            scores = rng.normal(size=m)
            labels = rng.random(m) < 0.4
            if labels.all() or not labels.any():
                continue
            base = ScoredSet(scores, labels)
            moved = ScoredSet(transform(scores), labels)
            assert exact_ap(moved) == pytest.approx(exact_ap(base), abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=12)
        labels = np.array([True] * 4 + [False] * 8)
        base = exact_ap(ScoredSet(scores, labels))
        for _ in range(10):
            perm = rng.permutation(12)
            assert exact_ap(ScoredSet(scores[perm], labels[perm])) == pytest.approx(
                base, abs=1e-12
            )

    def test_range_and_separation_property(self):
        rng = np.random.default_rng(9)
        for m in range(2, 7):
            for labels in nondegenerate_labelings(m):
                scores = rng.uniform(size=m)
                ap = exact_ap(ScoredSet(scores, labels))
                assert 0.0 < ap <= 1.0
                separated = scores[labels].min() > scores[~labels].max()
                assert (ap == 1.0) == separated


class TestMeanAp:
    def test_perfectly_clustered(self):
        vectors = np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        )
        batch = EmbeddingBatch(vectors, np.array([0, 0, 0, 1, 1, 1]))
        assert mean_ap(batch) == 1.0

    def test_four_instance_hand_computation(self):
        # Vectors at 0, 50, 25, 90 degrees with classes [0, 0, 1, 1]:
        # enumerating all four query rankings gives APs 1/2, 1/3, 1/3, 1/2.
        angles = np.deg2rad([0.0, 50.0, 25.0, 90.0])
        vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        batch = EmbeddingBatch(vectors, np.array([0, 0, 1, 1]))
        assert mean_ap(batch) == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_random_labels_match_monte_carlo(self):
        rng = np.random.default_rng(21)
        m = 60
        batch = EmbeddingBatch(unit_rows(rng, m, 8), (rng.random(m) < 0.5).astype(int))
        got = mean_ap(batch)
        trials = []
        for _ in range(300):
            labels = batch.class_ids.copy()
            rng.shuffle(labels)
            trials.append(mean_ap(EmbeddingBatch(batch.vectors, labels)))
        assert abs(got - float(np.mean(trials))) < 0.05

    def test_singleton_class_is_error(self):
        batch = EmbeddingBatch(
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), np.array([7, 1, 1])
        )
        with pytest.raises(DegenerateQueryError) as err:
            mean_ap(batch)
        assert err.value.class_id == 7


# Every batch kernel that ranks queries, at its defaults.
BATCH_KERNELS = {
    "mean_ap": mean_ap,
    "recall_at_k": lambda b: recall_at_k(b, [1]),
    "map_and_recall": lambda b: map_and_recall(b, [1]),
    "smooth_ap_loss": lambda b: smooth_ap_loss(b, SmoothApConfig()),
    "batch_ap_error": lambda b: batch_ap_error(b, SmoothApConfig()),
    "triplet_loss": lambda b: triplet_loss(b, TripletConfig()),
    "contrastive_loss": lambda b: contrastive_loss(b, 0.5),
}


@pytest.mark.parametrize("kernel", BATCH_KERNELS)
def test_query_without_positive_names_its_class(kernel):
    batch = EmbeddingBatch(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0, 0, 9]))
    with pytest.raises(DegenerateQueryError, match="^class 9 has a single instance") as err:
        BATCH_KERNELS[kernel](batch)
    assert err.value.class_id == 9


class TestRecallAtK:
    def test_perfect_clusters(self):
        vectors = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
        batch = EmbeddingBatch(vectors, np.array([0, 0, 0, 1, 1, 1]))
        assert recall_at_k(batch, [1])[1] == 1.0

    def test_nearest_neighbor_negative(self):
        # Two classes interleaved on the circle: every instance's nearest
        # neighbor belongs to the other class.
        angles = np.deg2rad([0.0, 10.0, 20.0, 30.0])
        vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        batch = EmbeddingBatch(vectors, np.array([0, 1, 0, 1]))
        assert recall_at_k(batch, [1])[1] == 0.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, 5, 4, 6)
        sims = batch.vectors @ batch.vectors.T
        got = recall_at_k(batch, [1, 3, 7])
        m = len(batch)
        for k in [1, 3, 7]:
            hits = 0
            for q in range(m):
                others = [j for j in range(m) if j != q]
                ranked = sorted(others, key=lambda j: (-sims[q, j], j))[:k]
                hits += any(batch.class_ids[j] == batch.class_ids[q] for j in ranked)
            assert got[k] == pytest.approx(hits / m)

    def test_k_out_of_range(self):
        batch = EmbeddingBatch(np.eye(3), np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="k="):
            recall_at_k(batch, [3])
