"""Row normalization and matrix products shared by the losses and encoder.

Everything that scores embeddings in this package goes through the same
pipeline: L2-normalize rows, take dot products (product). The backward
passes need the matching Jacobians, so they live here in one place.
"""

import numpy as np

__all__ = ["NormalizationError"]


class NormalizationError(ValueError):
    """A row could not be L2-normalized (near-zero or non-finite norm)."""


_NORM_FLOOR = 1e-12
# OpenBLAS runs a GEMM of at most this many multiply-adds (m * n * k) on the
# calling thread: SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD.
_SERIAL_MULTIPLY_ADDS = 65536 * 4
# glibc raises its mmap threshold to a freed mmapped chunk's size and its trim
# threshold to twice that, so scratch below 16 MiB then keeps its heap pages.
np.empty(2 << 20)


def row_runs(a, b, elements=None):
    """Yields (start, a[start:stop] @ b), fresh arrays, for consecutive runs
    of whole chunks of a's rows on one grid from row 0: chunks whose
    products stay at or below OpenBLAS's serial cutoff. A run holds at most
    elements product entries but never less than one chunk (all rows when
    elements is None).

    No product wakes the BLAS worker threads, which spin after each threaded
    call, and the chunk bounds (and so the result bits) depend on neither
    the thread count nor the run length. The product of a row range off
    this grid, or of a single row, can differ in the last bits.
    """
    step = max(1, _SERIAL_MULTIPLY_ADDS // max(1, b.size))
    chunks = -(-len(a) // step) if elements is None else elements // (step * b.shape[1])
    run = max(1, chunks) * step
    for start in range(0, len(a), run):
        rows = a[start : start + run]
        if len(rows) <= step:  # one chunk: one call
            yield start, rows @ b
            continue
        out = np.empty((len(rows), b.shape[1]), dtype=np.result_type(a, b))
        for lo in range(0, len(rows), step):
            np.matmul(rows[lo : lo + step], b, out=out[lo : lo + step])
        yield start, out


def product(a, b):
    """a @ b for 2-D a and b, as row_runs builds it; a product within
    OpenBLAS's serial cutoff is one call."""
    if len(a) * b.size <= _SERIAL_MULTIPLY_ADDS:
        return a @ b
    return next(row_runs(a, b))[1]


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
    grad_v = product(score_grad, unit_rows) + product(score_grad.T, unit_rows)
    return project_out_radial(unit_rows, norms, grad_v)
