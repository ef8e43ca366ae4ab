import warnings

import numpy as np
import pytest

from helpers import (
    central_difference,
    dense_operating_region,
    gapped_scores,
    max_rel_error,
    random_batch,
)
from ranksmooth.ranking import (
    DegenerateLabelsError,
    DegenerateQueryError,
    EmbeddingBatch,
    ScoredSet,
    exact_ap,
)
from ranksmooth.smoothap import (
    SmoothApConfig,
    ap_approx_error,
    batch_ap_error,
    batch_operating_region,
    operating_region_halfwidth,
    sigmoid,
    sigmoid_grad,
    smooth_ap_loss,
    smooth_ap_query,
)


def random_nondegenerate_labels(rng, m):
    labels = rng.random(m) < 0.5
    if labels.all():
        labels[0] = False
    if not labels.any():
        labels[0] = True
    return labels


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0, 1.0) == 0.5
        assert sigmoid(0.0, 0.003) == 0.5

    def test_analytic_point(self):
        tau = 0.37
        assert sigmoid(tau * np.log(3.0), tau) == pytest.approx(0.75, abs=1e-12)

    def test_saturation_no_nan(self):
        low = sigmoid(-1000.0, 0.01)
        high = sigmoid(1000.0, 0.01)
        assert low == 0.0
        assert high == 1.0
        assert np.isfinite(sigmoid(np.array([-1e6, 0.0, 1e6]), 1.0)).all()

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-30, 30, size=5000)
        assert np.abs(sigmoid(x, 0.7) + sigmoid(-x, 0.7) - 1.0).max() < 1e-12

    def test_derivative_identity(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, size=2000)
        g = sigmoid(x, 0.3)
        assert np.abs(sigmoid_grad(x, 0.3) - g * (1.0 - g) / 0.3).max() < 1e-12

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            sigmoid(1.0, 0.0)
        with pytest.raises(ValueError):
            sigmoid_grad(1.0, -0.5)


class TestSigmoidGrad:
    def test_peak_value(self):
        assert sigmoid_grad(0.0, 0.01) == pytest.approx(25.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, size=100)
        assert np.allclose(sigmoid_grad(x, 0.2), sigmoid_grad(-x, 0.2), atol=1e-15)

    def test_matches_finite_difference(self):
        x, tau, h = 0.005, 0.01, 1e-5
        numeric = (sigmoid(x + h, tau) - sigmoid(x - h, tau)) / (2 * h)
        assert sigmoid_grad(x, tau) == pytest.approx(numeric, rel=1e-6)


class TestSmoothApQuery:
    def test_tight_temperature_matches_exact(self):
        rng = np.random.default_rng(3)
        cfg = SmoothApConfig(tau=1e-4)
        for _ in range(100):
            m = int(rng.integers(3, 24))
            scores = gapped_scores(rng, m, 0.5)
            labels = random_nondegenerate_labels(rng, m)
            ss = ScoredSet(scores, labels)
            assert smooth_ap_query(ss, cfg) == pytest.approx(exact_ap(ss), abs=1e-6)

    def test_infinite_temperature_closed_form(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=bool)
        p, n = 3, 5
        want = (1 + (p - 1) / 2) / (1 + (p - 1) / 2 + n / 2)
        got = smooth_ap_query(ScoredSet(scores, labels), SmoothApConfig(tau=1e6))
        assert got == pytest.approx(want, abs=1e-5)

    def test_equal_scores_single_pair(self):
        ss = ScoredSet([0.5, 0.5], [True, False])
        for tau in [0.01, 0.5, 10.0]:
            assert smooth_ap_query(ss, SmoothApConfig(tau)) == pytest.approx(2.0 / 3.0)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(2, 30))
            ss = ScoredSet(rng.normal(size=m), random_nondegenerate_labels(rng, m))
            value = smooth_ap_query(ss, SmoothApConfig(rng.uniform(0.005, 2.0)))
            assert 0.0 < value <= 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        cfg = SmoothApConfig(0.05)
        for _ in range(30):
            m = int(rng.integers(3, 20))
            scores = rng.normal(size=m)
            labels = random_nondegenerate_labels(rng, m)
            base = smooth_ap_query(ScoredSet(scores, labels), cfg)
            shifted = smooth_ap_query(ScoredSet(scores + rng.normal(), labels), cfg)
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_negative_score_monotonicity(self):
        rng = np.random.default_rng(6)
        cfg = SmoothApConfig(0.1)
        for _ in range(50):
            m = int(rng.integers(3, 16))
            scores = rng.normal(size=m)
            labels = random_nondegenerate_labels(rng, m)
            base = smooth_ap_query(ScoredSet(scores, labels), cfg)
            neg = np.nonzero(~labels)[0]
            bumped = scores.copy()
            bumped[rng.choice(neg)] += rng.uniform(0.01, 1.0)
            assert smooth_ap_query(ScoredSet(bumped, labels), cfg) <= base + 1e-12

    def test_no_positives_is_error(self):
        with pytest.raises(DegenerateLabelsError):
            smooth_ap_query(ScoredSet([0.1, 0.2], [False, False]), SmoothApConfig())


class TestSmoothApLoss:
    def test_clustered_loss_near_zero(self):
        vectors = np.repeat(np.eye(4), 4, axis=0)
        batch = EmbeddingBatch(vectors, np.repeat(np.arange(4), 4))
        out = smooth_ap_loss(batch, SmoothApConfig(tau=0.001))
        assert out.loss < 0.01

    def test_matches_per_query_route(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, 5, 4, 8)
        cfg = SmoothApConfig(0.05)
        out = smooth_ap_loss(batch, cfg)
        sims = batch.vectors @ batch.vectors.T
        m = len(batch)
        aps = []
        for k in range(m):
            keep = np.arange(m) != k
            ss = ScoredSet(sims[k, keep], batch.class_ids[keep] == batch.class_ids[k])
            aps.append(smooth_ap_query(ss, cfg))
        assert out.loss == pytest.approx(float(np.mean(1.0 - np.array(aps))), abs=1e-12)

    @pytest.mark.parametrize("tau,tol", [(1.0, 1e-5), (0.1, 1e-5)])
    def test_embedding_gradient_finite_difference(self, tau, tol):
        rng = np.random.default_rng(8)
        batch = random_batch(rng, 4, 4, 8)
        cfg = SmoothApConfig(tau)
        out = smooth_ap_loss(batch, cfg)

        def value(x):
            return smooth_ap_loss(EmbeddingBatch.from_raw(x, batch.class_ids), cfg).loss

        numeric = central_difference(value, batch.vectors, step=1e-6)
        assert max_rel_error(out.embedding_grad, numeric) < tol

    def test_converged_clusters_near_zero_gradient(self):
        # Perfectly separated classes leave nothing to optimize: every
        # positive difference sits at the sigmoid midpoint with zero
        # weight and every negative difference is fully saturated.
        vectors = np.repeat(np.eye(4), 4, axis=0)
        batch = EmbeddingBatch(vectors, np.repeat(np.arange(4), 4))
        out = smooth_ap_loss(batch, SmoothApConfig(tau=0.001))
        assert np.abs(out.embedding_grad).max() < 1e-9

    def test_gradient_orthogonal_to_rows(self):
        rng = np.random.default_rng(9)
        batch = random_batch(rng, 4, 4, 8)
        out = smooth_ap_loss(batch, SmoothApConfig(0.1))
        dots = np.sum(out.embedding_grad * batch.vectors, axis=1)
        assert np.abs(dots).max() < 1e-9

    def test_score_grad_diagonal_zero_and_shapes(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, 3, 4, 6)
        out = smooth_ap_loss(batch, SmoothApConfig(0.2))
        assert out.score_grad.shape == (12, 12)
        assert out.embedding_grad.shape == (12, 6)
        assert np.all(np.diag(out.score_grad) == 0.0)
        assert 0.0 <= out.loss < 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 4, 4, 8)
        a = smooth_ap_loss(batch, SmoothApConfig(0.03))
        b = smooth_ap_loss(batch, SmoothApConfig(0.03))
        assert a.loss == b.loss
        assert np.array_equal(a.embedding_grad, b.embedding_grad)

    def test_degenerate_query_error_and_flag(self):
        # Rows 0 and 1 query each other with a tied negative, row 2: each
        # smoothed AP is 1 / (1 + sigmoid(0)) = 2/3. The flag leaves row 2
        # out of the mean silently.
        batch = EmbeddingBatch(np.eye(3), np.array([0, 0, 5]))
        with pytest.raises(DegenerateQueryError, match="^class 5 "):
            smooth_ap_loss(batch, SmoothApConfig(0.1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = smooth_ap_loss(batch, SmoothApConfig(0.1), allow_degenerate=True)
        assert caught == []
        assert out.loss == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert not out.score_grad[2].any()

    def test_quadratic_batch_cost_in_rows(self):
        # Cost model sanity: each query forms a (per_class-1, m-1) block of
        # differences. Just check values stay finite as m grows.
        rng = np.random.default_rng(12)
        for classes in [2, 8, 16]:
            batch = random_batch(rng, classes, 4, 8)
            out = smooth_ap_loss(batch, SmoothApConfig(0.05))
            assert np.isfinite(out.loss)


class TestApApproxError:
    def test_tight_temperature_small_error(self):
        rng = np.random.default_rng(13)
        cfg = SmoothApConfig(tau=1e-6)
        for _ in range(50):
            m = int(rng.integers(4, 20))
            scores = gapped_scores(rng, m, 0.01)
            labels = random_nondegenerate_labels(rng, m)
            assert ap_approx_error(ScoredSet(scores, labels), cfg) < 1e-3

    def test_perfect_ranking_near_zero(self):
        ss = ScoredSet([0.9, 0.6, 0.3, 0.1], [True, True, False, False])
        assert ap_approx_error(ss, SmoothApConfig(tau=1e-6)) < 1e-9

    def test_temperature_ordering_on_fixed_batch(self):
        rng = np.random.default_rng(14)
        batch = random_batch(rng, 6, 4, 8)
        errs = [batch_ap_error(batch, SmoothApConfig(t)) for t in (0.1, 0.01, 0.001)]
        assert errs[0] > errs[1] > errs[2]


class TestOperatingRegion:
    def test_equal_scores_full_region(self):
        batch = EmbeddingBatch(np.tile([1.0, 0.0], (9, 1)), np.zeros(9, dtype=int))
        for tau in (0.01, 10.0):
            cfg = SmoothApConfig(tau=tau)
            assert batch_operating_region(batch, cfg) == dense_operating_region(batch, cfg) == 1.0

    def test_spread_scores_only_diagonal(self):
        # At angles 0.3 (2^k - 1) no row is the midpoint of two others, and
        # each query's scores lie further apart than the half-width, 0.0122.
        angles = 0.3 * (2.0 ** np.arange(4) - 1.0)
        vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        batch = EmbeddingBatch(vectors, np.zeros(4, dtype=int))
        cfg = SmoothApConfig(tau=0.001)
        assert batch_operating_region(batch, cfg) == dense_operating_region(batch, cfg) == 0.25

    def test_halfwidth_root(self):
        cfg = SmoothApConfig(tau=0.01, grad_threshold=0.005)
        hw = operating_region_halfwidth(cfg)
        assert hw == pytest.approx(0.0990, abs=0.0005)
        # closed form: solve G(1-G) = tau * threshold for the upper root
        s = 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * cfg.tau * cfg.grad_threshold))
        assert hw == pytest.approx(cfg.tau * np.log(s / (1.0 - s)), abs=1e-10)

    def test_halfwidth_empty_region(self):
        assert operating_region_halfwidth(SmoothApConfig(tau=100.0)) == 0.0

    def test_batch_region_matches_per_query_fractions(self):
        rng = np.random.default_rng(15)
        batch = random_batch(rng, 4, 4, 8)
        cfg = SmoothApConfig(0.01)
        expected = dense_operating_region(batch, cfg)
        assert batch_operating_region(batch, cfg) == pytest.approx(expected, abs=1e-12)


class TestConfigValidation:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            SmoothApConfig(tau=0.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SmoothApConfig(grad_threshold=-1.0)
