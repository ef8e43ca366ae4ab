"""Property tests: the row-blocked exact-ranking and diagnostic kernels and
the batched losses against the pairwise-matrix, per-query and per-anchor
references in helpers, on random batches with tied scores, duplicate rows
and uneven class sizes, and the batch sampler's invariants on uneven
datasets. Equalities are exact unless a tolerance is given."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bisection_halfwidth,
    full_matrix_ap_error,
    full_matrix_smooth_ap,
    full_matrix_smooth_ap_grad,
    pairwise_ap,
    pairwise_mean_ap,
    per_anchor_triplet,
    per_pair_contrastive,
    per_query_map_and_recall,
    per_query_operating_region,
    per_query_sets,
    precision_at_hit_ap,
    sorted_recall_at_k,
)
from ranksmooth.baselines import TripletConfig, contrastive_loss, triplet_loss
from ranksmooth.data import Dataset, SamplerConfig, SamplerState, next_batch
from ranksmooth.encoder import EncoderParams, encode
from ranksmooth.linalg import product, row_runs
from ranksmooth.ranking import (
    _BLOCK_ELEMENTS,
    EmbeddingBatch,
    ScoredSet,
    exact_ap,
    map_and_recall,
    mean_ap,
    queries_with_positives,
    recall_at_k,
)
from ranksmooth.smoothap import (
    SmoothApConfig,
    batch_ap_error,
    batch_operating_region,
    operating_region_halfwidth,
    sigmoid_grad,
    smooth_ap_loss,
    smooth_ap_query,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

# Small integer coordinates make exactly tied cosine scores common; the
# occasional fraction breaks ties elsewhere.
coordinates = st.one_of(st.integers(-3, 3).map(float), st.floats(0.1, 1.0))


CLASS_SIZES = st.lists(st.integers(2, 6), min_size=1, max_size=5)
# Always a second class so anchors have negatives.
TRIPLET_CLASS_SIZES = st.lists(st.integers(2, 6), min_size=2, max_size=5)

# Classes of up to 12 rows make the positive and negative sums run past
# the 8 terms NumPy's pairwise summation adds in one run, where summation
# order shows. Singleton classes reach only smooth_ap_loss, which skips
# their rows under allow_degenerate, and the operating region, which
# needs no positive.
WIDE_CLASS_SIZES = st.lists(st.integers(2, 12), min_size=1, max_size=5)
SINGLETON_WIDE_CLASS_SIZES = st.lists(st.integers(1, 12), min_size=1, max_size=5).filter(
    lambda sizes: max(sizes) >= 2
)
TAUS = st.sampled_from([0.001, 0.01, 0.1, 1.0])


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
def test_map_and_recall_equals_mean_ap_and_recall(rows):
    features, class_ids = rows
    batch = encode(features, class_ids, EncoderParams(weight=np.eye(features.shape[1])))
    ks = range(1, len(batch))
    assert map_and_recall(batch, ks) == (mean_ap(batch), recall_at_k(batch, ks))


@PROPERTY_SETTINGS
@given(batches(TRIPLET_CLASS_SIZES), st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0, 2.5]))
def test_triplet_loss_equals_per_anchor_loop(batch, margin):
    out = triplet_loss(batch, TripletConfig(margin=margin))
    loss, score_grad, embedding_grad = per_anchor_triplet(batch, margin)
    assert np.array_equal(out.score_grad, score_grad)
    assert np.array_equal(out.embedding_grad, embedding_grad)
    assert abs(out.loss - loss) <= 1e-12


@PROPERTY_SETTINGS
@given(batches(TRIPLET_CLASS_SIZES), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
def test_contrastive_loss_equals_per_pair_loop(batch, margin):
    out = contrastive_loss(batch, margin)
    loss, score_grad, embedding_grad = per_pair_contrastive(batch, margin)
    assert out.loss == loss
    assert np.array_equal(out.score_grad, score_grad)
    assert np.array_equal(out.embedding_grad, embedding_grad)


@PROPERTY_SETTINGS
@given(st.floats(1e-3, 10.0), st.floats(1e-4, 10.0))
def test_closed_form_halfwidth_matches_bisection(tau, threshold):
    """The region is empty exactly when the bisection reference says so,
    and the closed form is within 8 ulps of it while 4 tau theta <= 1/2;
    as 4 tau theta nears 1 the edge is ill-conditioned in tau theta."""
    got = operating_region_halfwidth(SmoothApConfig(tau, threshold))
    want = bisection_halfwidth(tau, threshold)
    assert (got == 0.0) == (want == 0.0)
    if 4.0 * tau * threshold <= 0.5:
        assert abs(got - want) <= 8 * np.spacing(want)


@PROPERTY_SETTINGS
@given(batches(WIDE_CLASS_SIZES))
def test_map_and_recall_equals_per_query_loop(batch):
    ks = range(1, len(batch))
    assert map_and_recall(batch, ks) == per_query_map_and_recall(batch, ks)


@PROPERTY_SETTINGS
@given(batches(WIDE_CLASS_SIZES), TAUS)
def test_batch_ap_error_equals_full_matrix_formula_wide_classes(batch, tau):
    assert batch_ap_error(batch, SmoothApConfig(tau)) == full_matrix_ap_error(batch, tau)


@PROPERTY_SETTINGS
@given(scored_sets(), TAUS)
def test_smooth_ap_query_equals_full_matrix_formula(scored, tau):
    got = smooth_ap_query(scored, SmoothApConfig(tau))
    assert got == full_matrix_smooth_ap(scored.scores, scored.labels, tau)


# At tau 100 with threshold 0.005, and at tau 1 with threshold 1, the peak
# derivative 1 / (4 tau) is at or below the threshold: the region is empty.
@PROPERTY_SETTINGS
@given(batches(SINGLETON_WIDE_CLASS_SIZES), st.sampled_from([0.001, 0.01, 0.1, 1.0, 100.0]),
       st.sampled_from([0.005, 0.05, 1.0]))
def test_batch_operating_region_equals_per_query_loop(batch, tau, threshold):
    cfg = SmoothApConfig(tau, threshold)
    halfwidth = operating_region_halfwidth(cfg)
    assert batch_operating_region(batch, cfg) == per_query_operating_region(batch, halfwidth)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(-16, 16).map(lambda v: v / 16), min_size=1, max_size=8),
       st.sampled_from([0.01, 0.05, 0.1]))
def test_batch_operating_region_edge_ties(bases, tau):
    """Scores exactly one half-width apart (in floating point) sit on the
    region's edge, which lies outside it. Row 0 is (1, 0), so its scores
    are the other rows' first coordinates."""
    cfg = SmoothApConfig(tau)
    halfwidth = operating_region_halfwidth(cfg)
    x = np.array([1.0] + bases + [b + halfwidth for b in bases] + [b - halfwidth for b in bases])
    x = x[np.abs(x) <= 1.0]
    batch = EmbeddingBatch(np.stack([x, np.sqrt(1.0 - x * x)], axis=1), np.zeros(x.size, int))
    assert batch_operating_region(batch, cfg) == per_query_operating_region(batch, halfwidth)


@PROPERTY_SETTINGS
@given(batches(SINGLETON_WIDE_CLASS_SIZES), st.sampled_from([0.001, 0.01, 0.05, 0.1, 1.0]))
def test_smooth_ap_loss_matches_per_query_route(batch, tau):
    cfg = SmoothApConfig(tau)
    loss = smooth_ap_loss(batch, cfg, allow_degenerate=True).loss
    aps = [smooth_ap_query(ScoredSet(s, y), cfg) for s, y in per_query_sets(batch)]
    assert abs(loss - float(np.mean(1.0 - np.array(aps)))) <= 1e-12


@PROPERTY_SETTINGS
@given(batches(SINGLETON_WIDE_CLASS_SIZES), TAUS)
def test_smooth_ap_loss_score_grad_equals_full_matrix_gradient(batch, tau):
    """Each valid query's row of score_grad is -1/Q times the dense
    gradient of its smoothed AP; the self entries and the rows of skipped
    queries are zero. The tolerance is relative to the largest term the
    gradient sums, sigmoid_grad(D[i, j]) / (Q |P|) for a positive i and
    j != i: a gradient that cancels to zero still carries their rounding."""
    score_grad = smooth_ap_loss(batch, SmoothApConfig(tau), allow_degenerate=True).score_grad
    m = len(batch)
    same = batch.class_ids[:, None] == batch.class_ids[None, :]
    valid = same.sum(axis=1) > 1
    expected = np.zeros((m, m))
    scale = 0.0
    for k in np.flatnonzero(valid):
        keep = np.arange(m) != k
        scores, labels = batch.vectors[keep] @ batch.vectors[k], same[k, keep]
        expected[k, keep] = full_matrix_smooth_ap_grad(scores, labels, tau)
        terms = sigmoid_grad(scores[None, :] - scores[labels, None], tau)
        terms[np.arange(labels.sum()), np.flatnonzero(labels)] = 0.0  # self terms
        scale = max(scale, terms.max() / labels.sum())
    expected /= -valid.sum()
    scale /= valid.sum()
    assert np.abs(score_grad - expected).max() <= 1e-12 * max(scale, np.abs(expected).max())
    assert not np.diagonal(score_grad).any()
    assert not score_grad[~valid].any()


@st.composite
def sampler_cases(draw):
    """A dataset of uneven classes (sparse labels, shuffled rows) and a
    sampler config asking for at most as many classes as are eligible."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    per_class = draw(st.integers(1, max(sizes)))
    num_classes = draw(st.integers(1, sum(size >= per_class for size in sizes)))
    labels = np.repeat(np.arange(len(sizes)) * 7, sizes)
    labels = labels[draw(st.permutations(range(labels.size)))]
    dataset = Dataset(np.zeros((labels.size, 1)), labels)
    return dataset, SamplerConfig(num_classes * per_class, per_class)


@PROPERTY_SETTINGS
@given(sampler_cases(), st.integers(0, 2**64 - 1), st.integers(0, 1000))
def test_next_batch_invariants(case, seed, counter):
    dataset, config = case
    state = SamplerState(seed, counter)
    idx, after = next_batch(dataset, config, state)
    labels, counts = np.unique(dataset.class_ids[idx], return_counts=True)
    eligible = {c for c, rows in dataset.class_index.items() if rows.size >= config.per_class}
    assert labels.size == config.batch_size // config.per_class
    assert set(labels.tolist()) <= eligible
    assert (counts == config.per_class).all()
    assert np.unique(idx).size == idx.size
    # A pure function of (seed, counter): a draw in between and an equal
    # fresh state leave the batch unchanged.
    assert after == state.advance() == SamplerState(seed, counter + 1)
    next_batch(dataset, config, after)
    again, _ = next_batch(dataset, config, SamplerState(seed, counter))
    assert np.array_equal(again, idx)


@pytest.mark.parametrize("seed", range(3))
def test_many_block_batches_equal_per_query_loops(seed):
    """Batches of 142-164 rows with uneven classes including singletons,
    which only the smoothed-AP loss and the operating region see. Under
    the per-positive block budget of the losses and batch_ap_error, 3 of
    the 8 and 3 of the 10 positive counts of seeds 0 and 1 span several
    row blocks (none of seed 2's 11); under the exact metrics' budget of
    m - 1 elements per row none does (see the next test)."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 13, size=24)
    class_ids = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    rows = rng.integers(-2, 3, size=(class_ids.size, 3)).astype(float)
    rows[~rows.any(axis=1), 0] = 1.0
    batch = EmbeddingBatch.from_raw(rows, class_ids)
    cfg = SmoothApConfig(0.01)
    smooth_ap = smooth_ap_loss(batch, cfg, allow_degenerate=True).loss
    aps = [smooth_ap_query(ScoredSet(s, y), cfg) for s, y in per_query_sets(batch)]
    assert abs(smooth_ap - float(np.mean(1.0 - np.array(aps)))) <= 1e-12
    halfwidth = operating_region_halfwidth(cfg)
    assert batch_operating_region(batch, cfg) == per_query_operating_region(batch, halfwidth)

    kept = sizes[class_ids] > 1  # the other kernels reject a row with no positive
    batch = EmbeddingBatch(batch.vectors[kept], class_ids[kept])
    ks = (1, 5, 50)
    assert map_and_recall(batch, ks) == per_query_map_and_recall(batch, ks)
    assert batch_ap_error(batch, cfg) == full_matrix_ap_error(batch, 0.01)
    triplet = triplet_loss(batch, TripletConfig(margin=0.1))
    loss, score_grad, embedding_grad = per_anchor_triplet(batch, 0.1)
    assert np.array_equal(triplet.score_grad, score_grad)
    assert np.array_equal(triplet.embedding_grad, embedding_grad)
    assert abs(triplet.loss - loss) <= 1e-12


def test_exact_metrics_on_one_count_over_several_row_blocks():
    """300 rows of 30 classes of 10: every query has 9 positives. At d = 3
    linalg's row chunks hold 262144 // 900 = 291 rows, more than a block
    budget's worth, so each chunk is a run, and a block, of its own: the
    one count spans two blocks of 291 and 9 rows. The rows are continuous:
    at this size the BLAS does not score duplicate rows bit-equally (its
    edge tiles round otherwise), so a tie would test the Gram product, not
    the blocks."""
    rng = np.random.default_rng(0)
    class_ids = rng.permutation(np.repeat(np.arange(30), 10))
    batch = EmbeddingBatch.from_raw(rng.normal(size=(class_ids.size, 3)), class_ids)
    runs = row_runs(batch.vectors, batch.vectors.T, _BLOCK_ELEMENTS)
    assert [(start, len(sims)) for start, sims in runs] == [(0, 291), (291, 9)]
    ks = (1, 5, 50)
    assert map_and_recall(batch, ks) == per_query_map_and_recall(batch, ks)


def test_exact_metrics_on_runs_that_cut_classes_and_counts():
    """The first 1000 rows of a shuffled set of uneven classes of 2-40, of
    64 dimensions, less the one row left alone in its class: the Gram
    arrives in 4-row chunks, read in runs of 8 chunks (32 rows), so every
    run holds parts of many classes and several positive counts. The runs
    reproduce the whole Gram bit for bit, and the metrics equal the
    per-query oracle."""
    rng = np.random.default_rng(0)
    sizes = rng.integers(2, 41, size=60)
    class_ids = rng.permutation(np.repeat(np.arange(sizes.size), sizes))[:1000]
    class_ids = class_ids[np.bincount(class_ids)[class_ids] > 1]
    batch = EmbeddingBatch.from_raw(rng.normal(size=(class_ids.size, 64)), class_ids)
    assert len(next(row_runs(batch.vectors, batch.vectors.T, 1))[1]) == 4
    runs = list(row_runs(batch.vectors, batch.vectors.T, _BLOCK_ELEMENTS))
    assert [len(sims) for _, sims in runs[:-1]] == [32] * (len(runs) - 1)
    num_pos = queries_with_positives(batch.class_ids)[0]
    assert min(np.unique(num_pos[start : start + 32]).size for start, _ in runs[:-1]) >= 3
    gram = np.concatenate([sims for _, sims in runs])
    assert gram.tobytes() == product(batch.vectors, batch.vectors.T).tobytes()
    ks = (1, 5, 50)
    assert map_and_recall(batch, ks) == per_query_map_and_recall(batch, ks)


def test_operating_region_over_many_row_runs():
    """600 continuous rows at d = 16: linalg's row chunks hold
    262144 // 9600 = 27 rows, and half a block budget holds one chunk, so
    the region is counted over 23 runs; it equals the per-query loop."""
    rng = np.random.default_rng(0)
    class_ids = rng.permutation(np.repeat(np.arange(60), 10))
    batch = EmbeddingBatch.from_raw(rng.normal(size=(class_ids.size, 16)), class_ids)
    assert len(list(row_runs(batch.vectors, batch.vectors.T, _BLOCK_ELEMENTS // 2))) == 23
    for cfg in (SmoothApConfig(), SmoothApConfig(0.1)):
        halfwidth = operating_region_halfwidth(cfg)
        assert batch_operating_region(batch, cfg) == per_query_operating_region(batch, halfwidth)
