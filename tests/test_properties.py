"""Property tests: the sort-based exact-ranking kernel and the batched
triplet loss against the pairwise-matrix and per-anchor references in
helpers, on random batches with tied scores, duplicate rows and uneven
class sizes. Equalities are exact unless a tolerance is given."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    full_matrix_ap_error,
    pairwise_ap,
    pairwise_mean_ap,
    per_anchor_triplet,
    precision_at_hit_ap,
    sorted_recall_at_k,
)
from ranksmooth.baselines import TripletConfig, triplet_loss
from ranksmooth.data import Dataset
from ranksmooth.encoder import EncoderParams, encode
from ranksmooth.experiments import evaluate_encoder
from ranksmooth.ranking import EmbeddingBatch, ScoredSet, exact_ap, mean_ap, recall_at_k
from ranksmooth.smoothap import SmoothApConfig, batch_ap_error, operating_region_halfwidth

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

# Small integer coordinates make exactly tied cosine scores common; the
# occasional fraction breaks ties elsewhere.
coordinates = st.one_of(st.integers(-3, 3).map(float), st.floats(0.1, 1.0))


CLASS_SIZES = st.lists(st.integers(2, 6), min_size=1, max_size=5)
# Singleton classes too, and always a second class so anchors have negatives.
TRIPLET_CLASS_SIZES = st.lists(st.integers(1, 6), min_size=2, max_size=5).filter(
    lambda sizes: max(sizes) >= 2
)


@st.composite
def labelled_rows(draw, class_sizes=CLASS_SIZES):
    """Nonzero rows drawn from a small pool (so rows repeat), labelled by
    classes of the drawn sizes in shuffled order."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(coordinates, min_size=dim, max_size=dim), min_size=1, max_size=6))
    pool = np.array(pool)
    pool[~pool.any(axis=1), 0] = 1.0  # no zero rows
    sizes = draw(class_sizes)
    m = sum(sizes)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    order = draw(st.permutations(range(m)))
    return pool[picks], np.repeat(np.arange(len(sizes)), sizes)[order]


def batches(class_sizes=CLASS_SIZES):
    return labelled_rows(class_sizes).map(lambda rows: EmbeddingBatch.from_raw(*rows))


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


@PROPERTY_SETTINGS
@given(labelled_rows())
def test_evaluate_encoder_equals_mean_ap_and_recall(rows):
    features, class_ids = rows
    params = EncoderParams(weight=np.eye(features.shape[1]))
    batch = encode(features, class_ids, params)
    ks = range(1, len(batch))
    got = evaluate_encoder(params, Dataset(features, class_ids), ks)
    assert got == (mean_ap(batch), recall_at_k(batch, ks))


@PROPERTY_SETTINGS
@given(batches(TRIPLET_CLASS_SIZES), st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0, 2.5]))
def test_triplet_loss_equals_per_anchor_loop(batch, margin):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singleton classes are skipped with a warning
        out = triplet_loss(batch, TripletConfig(margin=margin), allow_degenerate=True)
    loss, score_grad, embedding_grad = per_anchor_triplet(batch, margin)
    assert np.array_equal(out.score_grad, score_grad)
    assert np.array_equal(out.embedding_grad, embedding_grad)
    assert abs(out.loss - loss) <= 1e-12


@PROPERTY_SETTINGS
@given(st.floats(1e-3, 10.0), st.floats(1e-4, 10.0))
def test_memoized_halfwidth_equals_fresh_bisection(tau, threshold):
    cfg = SmoothApConfig(tau, threshold)
    fresh = operating_region_halfwidth.__wrapped__(cfg)
    assert operating_region_halfwidth(cfg) == fresh
    assert operating_region_halfwidth(SmoothApConfig(tau, threshold)) == fresh
