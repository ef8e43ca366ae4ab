"""Sort-based retrieval oracle, independent of ranksmooth's ranking code.

Each query's retrieval list is the other rows ordered by descending cosine
score with ties going to the lower row index; AP is the mean precision at
each positive along that list, and Recall@K asks whether any positive sits
in its first K entries.
"""

import numpy as np


def map_and_recall(vectors, class_ids, ks):
    """Return (mean AP over all queries, {k: Recall@k}) for unit rows."""
    vectors = np.asarray(vectors, dtype=np.float64)
    class_ids = np.asarray(class_ids)
    n = vectors.shape[0]
    sims = vectors @ vectors.T
    index = np.arange(n)
    ap_sum = 0.0
    hits = {k: 0 for k in ks}
    for q in range(n):
        others = index[index != q]
        order = others[np.lexsort((others, -sims[q, others]))]
        relevant = class_ids[order] == class_ids[q]
        found = np.cumsum(relevant)
        ranks = np.nonzero(relevant)[0] + 1
        ap_sum += float(np.mean(found[ranks - 1] / ranks))
        for k in ks:
            hits[k] += bool(relevant[:k].any())
    return ap_sum / n, {k: hits[k] / n for k in ks}
