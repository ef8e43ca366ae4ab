"""Row-normalization helpers shared by the losses and the encoder.

Everything that scores embeddings in this package goes through the same
pipeline: L2-normalize rows, take dot products. The backward passes need
the matching Jacobians, so they live here in one place.
"""

import numpy as np


class NormalizationError(ValueError):
    """A row could not be L2-normalized (near-zero or non-finite norm)."""


_NORM_FLOOR = 1e-12


def normalize_rows(x):
    """Return (unit-row copy of x, original row norms).

    Raises NormalizationError naming the first offending row if any row
    has norm below the representable floor, or a NaN or infinite norm.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(norms >= _NORM_FLOOR) | np.isinf(norms))  # NaN fails >=
    if bad.size:
        row = int(bad[0])
        kind = "near-zero" if np.isfinite(norms[row]) else "non-finite"
        raise NormalizationError(f"row {row} has {kind} norm {norms[row]:.3e}")
    return x / norms[:, None], norms


def project_out_radial(unit_rows, norms, grad):
    """Backpropagate a gradient through row-wise L2 normalization.

    For v = x / ||x|| the Jacobian is (I - v v^T) / ||x||; it annihilates
    the radial direction, so the result is row-wise orthogonal to
    unit_rows.
    """
    radial = np.sum(grad * unit_rows, axis=1, keepdims=True)
    return (grad - radial * unit_rows) / norms[:, None]


def similarity_backward(unit_rows, norms, score_grad):
    """Map d(loss)/d(similarity matrix) to d(loss)/d(raw input rows).

    score_grad[k, j] is the gradient w.r.t. the dot product of rows k and
    j; entries on the diagonal must be zero (self-similarity is never part
    of a loss).
    """
    grad_v = score_grad @ unit_rows + score_grad.T @ unit_rows
    return project_out_radial(unit_rows, norms, grad_v)
