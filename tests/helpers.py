"""Shared test oracles and batch builders.

The oracles here are deliberately independent of the library's own
computation paths: AP via an explicit sorted precision-at-hit walk, and
gradients via central finite differences on the public loss surface.

The reference implementations below reach the library's exact and
smoothed AP through m x m pairwise matrices instead of one sort, batch
metrics and diagnostics one query at a time instead of a block of query
rows at a time, and the all-valid triplet loss through one hinge matrix
per anchor instead of a block of anchors at a time, and the contrastive
loss one listed pair at a time instead of through pair masks, with the
same floating-point operations in the same order, so the library's kernels
can be held to them with ==. The smoothed-AP score gradient is the exception:
its dense m x m reference sums in another order, so it is held to a
tolerance. So are the operating region's dense per-query fractions and its
half-width by bisection, which the library reads from a closed form.

loss_timing is the wall-clock measurement behind the complexity-scaling
acceptance criterion.
"""

import time

import numpy as np

from ranksmooth.linalg import normalize_rows, similarity_backward
from ranksmooth.ranking import EmbeddingBatch
from ranksmooth.smoothap import SmoothApConfig, sigmoid, sigmoid_grad, smooth_ap_loss


def precision_at_hit_ap(scores, labels):
    """Brute-force AP oracle: walk the ranking, average precision at hits.

    Descending score, ties broken by ascending index (same convention the
    library documents).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    order = np.lexsort((np.arange(scores.size), -scores))
    hits = 0
    precisions = []
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            hits += 1
            precisions.append(hits / rank)
    return float(np.mean(precisions))


def central_difference(fn, x, step=1e-6):
    """Central finite-difference gradient of scalar fn at array x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        up.flat[i] += step
        down = x.copy()
        down.flat[i] -= step
        grad.flat[i] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def unit_rows(rng, m, d):
    x = rng.normal(size=(m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_batch(rng, num_classes, per_class, d):
    """Random unit embeddings with class-balanced labels."""
    m = num_classes * per_class
    return EmbeddingBatch(unit_rows(rng, m, d), np.repeat(np.arange(num_classes), per_class))


def gapped_scores(rng, m, min_gap):
    """Random scores whose pairwise gaps are all at least min_gap."""
    steps = min_gap + rng.uniform(0.0, min_gap, size=m)
    scores = np.cumsum(steps)
    rng.shuffle(scores)
    return scores


def nondegenerate_labelings(m):
    """Every boolean labeling of m items except all-false and all-true."""
    for bits in range(1, 2**m - 1):
        yield np.array([(bits >> i) & 1 == 1 for i in range(m)])


def pairwise_ap(scores, labels):
    """Exact AP from an m x m "j ranks above i" matrix: per positive,
    (1 + positives above) / (1 + all above), averaged in index order."""
    idx = np.arange(scores.shape[0])
    above = (scores[None, :] > scores[:, None]) | (
        (scores[None, :] == scores[:, None]) & (idx[None, :] < idx[:, None])
    )
    rank_all = 1 + above.sum(axis=1)
    rank_pos = 1 + (above & labels[None, :]).sum(axis=1)
    return float(np.mean(rank_pos[labels] / rank_all[labels]))


def full_matrix_smooth_ap(scores, labels, tau):
    """Smoothed AP from the full m x m sigmoid matrix, self terms zeroed,
    keeping only the positive rows. Each smoothed rank sums a C-ordered
    row, as the library's blocks do: np.take keeps the positive columns
    C-ordered, where a boolean column index would return them F-ordered,
    which sums in another order."""
    g = sigmoid(scores[None, :] - scores[:, None], tau)
    np.fill_diagonal(g, 0.0)
    pos_rows = g[labels]
    numer = 1.0 + np.take(pos_rows, np.flatnonzero(labels), axis=1).sum(axis=1)
    denom = 1.0 + pos_rows.sum(axis=1)
    return float(np.mean(numer / denom))


def full_matrix_smooth_ap_grad(scores, labels, tau):
    """d smoothed AP / d scores of one query from the full m x m sigmoid
    and sigmoid-derivative matrices, self terms zeroed: entry [i, j] of
    d AP / d D, with D[i, j] = scores[j] - scores[i], adds to column j and
    takes from column i. Each d (numer_i / denom_i) / d G[i, j] is written
    without cancellation: the negatives' sum over denom^2 on a positive
    column, -numer / denom^2 on a negative one."""
    d = scores[None, :] - scores[:, None]
    g = sigmoid(d, tau)
    gprime = sigmoid_grad(d, tau)
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(gprime, 0.0)
    numer = 1.0 + (g * labels).sum(axis=1)
    neg = (g * ~labels).sum(axis=1)
    dfrac = np.where(labels[None, :], neg[:, None], -numer[:, None]) / (numer + neg)[:, None] ** 2
    dd = np.where(labels[:, None], dfrac * gprime, 0.0) / labels.sum()
    return dd.sum(axis=0) - dd.sum(axis=1)


def per_query_sets(batch):
    """(scores, labels) of every batch query against the other rows, for
    queries with at least one positive, scored as the library does."""
    m = len(batch)
    sims = batch.vectors @ batch.vectors.T
    for k in range(m):
        keep = np.arange(m) != k
        labels = batch.class_ids[keep] == batch.class_ids[k]
        if labels.any():
            yield sims[k, keep], labels


def pairwise_mean_ap(batch):
    return float(np.mean([pairwise_ap(s, y) for s, y in per_query_sets(batch)]))


def full_matrix_ap_error(batch, tau):
    return float(np.mean([
        abs(full_matrix_smooth_ap(s, y, tau) - pairwise_ap(s, y)) for s, y in per_query_sets(batch)
    ]))


def per_query_map_and_recall(batch, ks):
    """(mean AP, {k: Recall@k}) one query at a time over the queries with
    a positive, APs averaged in query order."""
    aps, hits = [], dict.fromkeys(ks, 0)
    for scores, labels in per_query_sets(batch):
        aps.append(pairwise_ap(scores, labels))
        ranked = labels[np.argsort(-scores, kind="stable")]
        for k in ks:
            hits[k] += bool(ranked[:k].any())
    return float(np.mean(aps)), {k: hits[k] / len(aps) for k in ks}


def dense_operating_region(batch, cfg):
    """Mean over queries of the fraction of the query's m x m difference
    matrix (self included) whose sigmoid derivative exceeds the threshold,
    one dense matrix per query."""
    sims = batch.vectors @ batch.vectors.T
    return float(np.mean([
        np.mean(sigmoid_grad(row[None, :] - row[:, None], cfg.tau) > cfg.grad_threshold)
        for row in sims
    ]))


def bisection_halfwidth(tau, threshold, max_iter=200):
    """Operating-region half-width by bisection on sigmoid_grad(x, tau) =
    threshold; 0.0 when the peak derivative is at or below the threshold."""
    if sigmoid_grad(0.0, tau) <= threshold:
        return 0.0
    lo, hi = 0.0, tau
    while sigmoid_grad(hi, tau) > threshold:
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if sigmoid_grad(mid, tau) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_query_operating_region(batch, halfwidth):
    """Mean operating-region fraction, one query's sorted scores and two
    searchsorted calls at a time; 0.0 for an empty region."""
    if halfwidth == 0.0:
        return 0.0
    sims = batch.vectors @ batch.vectors.T
    m = len(batch)
    fractions = np.empty(m)
    for q in range(m):
        row = np.sort(sims[q])
        hi = np.searchsorted(row, row + halfwidth, side="left")
        lo = np.searchsorted(row, row - halfwidth, side="right")
        fractions[q] = float((hi - lo).sum()) / (m * m)
    return float(np.mean(fractions))


def sorted_recall_at_k(vectors, class_ids, ks):
    """Recall@K by the benchmark oracle's rule: each query's other rows by
    descending score, ties to the lower row index; a hit is any positive
    among the first k."""
    n = vectors.shape[0]
    sims = vectors @ vectors.T
    index = np.arange(n)
    hits = {k: 0 for k in ks}
    queries = 0
    for q in range(n):
        others = index[index != q]
        relevant = class_ids[others[np.lexsort((others, -sims[q, others]))]] == class_ids[q]
        if relevant.any():
            queries += 1
            for k in ks:
                hits[k] += bool(relevant[:k].any())
    return {k: hits[k] / queries for k in ks}


def per_anchor_triplet(batch, margin):
    """All-valid triplet loss one anchor at a time: (loss, score_grad,
    embedding_grad). Anchors whose class has no other row are skipped."""
    unit, norms = normalize_rows(batch.vectors)
    m = len(batch)
    sims = unit @ unit.T
    same = batch.class_ids[None, :] == batch.class_ids[:, None]
    np.fill_diagonal(same, False)
    others = ~np.eye(m, dtype=bool)
    anchors = np.flatnonzero(same.any(axis=1))
    pos_lists = [np.nonzero(same[a])[0] for a in anchors]
    neg_lists = [np.nonzero(~same[a] & others[a])[0] for a in anchors]
    count = sum(len(p) * len(n) for p, n in zip(pos_lists, neg_lists))
    score_grad = np.zeros((m, m))
    total = 0.0
    for a, pos, neg in zip(anchors, pos_lists, neg_lists):
        hinge = sims[a, neg][None, :] - sims[a, pos][:, None] + margin
        active = hinge > 0
        total += hinge[active].sum()
        score_grad[a, pos] -= active.sum(axis=1)
        score_grad[a, neg] += active.sum(axis=0)
    total /= count
    score_grad /= count
    return float(total), score_grad, similarity_backward(unit, norms, score_grad)


def per_pair_contrastive(batch, margin):
    """Contrastive loss one pair at a time: (loss, score_grad,
    embedding_grad). The pairs (i, j), i < j, are listed in that order and
    each side's terms reduced with np.mean."""
    unit, norms = normalize_rows(batch.vectors)
    m = len(batch)
    sims = unit @ unit.T
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    pos = [(i, j) for i, j in pairs if batch.class_ids[i] == batch.class_ids[j]]
    neg = [(i, j) for i, j in pairs if batch.class_ids[i] != batch.class_ids[j]]
    loss = np.mean([1.0 - sims[i, j] for i, j in pos]) + np.mean(
        [np.maximum(sims[i, j] - margin, 0.0) for i, j in neg]
    )
    score_grad = np.zeros((m, m))
    for i, j in pos:
        score_grad[i, j] = -1.0 / len(pos)
    for i, j in neg:
        if sims[i, j] > margin:
            score_grad[i, j] = 1.0 / len(neg)
    return float(loss), score_grad, similarity_backward(unit, norms, score_grad)


def loss_timing(batch_sizes, *, repeats=7):
    """Minimum wall time (ms) of the smoothed-AP loss per batch size.

    Uses random 16-dimensional unit embeddings (seed 0) with 4 instances
    per class, the default tau and two warmup evaluations per size, then
    the minimum of the timed repeats: other processes on the machine only
    ever add time, so the fastest repeat is the one closest to the loss's
    own cost. The sizes are timed round-robin within each repeat so a
    transient system stall lands on every size of that repeat rather than
    skewing one of them.

    The timings do not depend on what ran before in the process: the
    loss's scratch arrays come from heap pages kept across calls, since
    ranksmooth.linalg raises glibc's mmap threshold at import.
    """
    cfg, per_class = SmoothApConfig(), 4
    rng = np.random.default_rng(0)
    batches = {}
    for m in batch_sizes:
        if m < 2 or m % per_class != 0:
            raise ValueError(f"batch size {m} must be a multiple of per_class {per_class}")
        x = rng.normal(size=(m, 16))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        batches[m] = EmbeddingBatch(x, np.repeat(np.arange(m // per_class), per_class))
    times = {m: [] for m in batch_sizes}
    for m in batch_sizes:
        for _ in range(2):
            smooth_ap_loss(batches[m], cfg)
    for _ in range(repeats):
        for m in batch_sizes:
            t0 = time.perf_counter()
            smooth_ap_loss(batches[m], cfg)
            times[m].append((time.perf_counter() - t0) * 1000.0)
    return {m: min(times[m]) for m in batch_sizes}
