"""Property tests: the sort-based exact-ranking kernel against the
pairwise-matrix references in helpers, on random batches with tied
scores, duplicate rows and uneven class sizes. Equalities are exact."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    full_matrix_ap_error,
    pairwise_ap,
    pairwise_mean_ap,
    precision_at_hit_ap,
    sorted_recall_at_k,
)
from ranksmooth.ranking import EmbeddingBatch, ScoredSet, exact_ap, mean_ap, recall_at_k
from ranksmooth.smoothap import SmoothApConfig, batch_ap_error

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

# Small integer coordinates make exactly tied cosine scores common; the
# occasional fraction breaks ties elsewhere.
coordinates = st.one_of(st.integers(-3, 3).map(float), st.floats(0.1, 1.0))


@st.composite
def batches(draw):
    """Unit rows drawn from a small pool (so rows repeat), labelled by
    classes of 2 to 6 members in shuffled order."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(coordinates, min_size=dim, max_size=dim), min_size=1, max_size=6))
    pool = np.array(pool)
    pool[~pool.any(axis=1), 0] = 1.0  # no zero rows
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=5))
    m = sum(sizes)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    order = draw(st.permutations(range(m)))
    class_ids = np.repeat(np.arange(len(sizes)), sizes)[order]
    return EmbeddingBatch.from_raw(pool[picks], class_ids)


@st.composite
def scored_sets(draw):
    m = draw(st.integers(1, 30))
    scores = draw(st.lists(st.integers(-4, 4).map(lambda v: v / 4), min_size=m, max_size=m))
    labels = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    labels[draw(st.integers(0, m - 1))] = True
    return ScoredSet(scores, labels)


@PROPERTY_SETTINGS
@given(batches())
def test_mean_ap_equals_pairwise_formula(batch):
    assert mean_ap(batch) == pairwise_mean_ap(batch)


@PROPERTY_SETTINGS
@given(batches(), st.sampled_from([0.001, 0.01, 0.1, 1.0]))
def test_batch_ap_error_equals_full_matrix_formula(batch, tau):
    assert batch_ap_error(batch, SmoothApConfig(tau)) == full_matrix_ap_error(batch, tau)


@PROPERTY_SETTINGS
@given(batches())
def test_recall_at_k_equals_sorted_oracle(batch):
    ks = range(1, len(batch))
    assert recall_at_k(batch, ks) == sorted_recall_at_k(batch.vectors, batch.class_ids, ks)


@PROPERTY_SETTINGS
@given(scored_sets())
def test_exact_ap_matches_pairwise_and_walk(scored):
    ap = exact_ap(scored)
    assert ap == pairwise_ap(scored.scores, scored.labels)
    assert abs(ap - precision_at_hit_ap(scored.scores, scored.labels)) <= 1e-13
