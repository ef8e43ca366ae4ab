import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ranksmooth import linalg

SRC = str(Path(linalg.__file__).resolve().parents[1])


def run_with_threads(threads, code):
    """stdout of `python -c code` with every BLAS thread variable set to
    threads; the variables only take effect before NumPy loads."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout


PRODUCT_BYTES = """
import hashlib, numpy as np
from ranksmooth.linalg import normalize_rows, product, similarity_backward
rng = np.random.default_rng(0)
for m in (256, 420, 500, 512, 1000):
    unit, norms = normalize_rows(rng.standard_normal((m, 16)))
    score_grad = rng.standard_normal((m, m))
    np.fill_diagonal(score_grad, 0.0)
    for out in (product(unit, unit.T), similarity_backward(unit, norms, score_grad)):
        print(m, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_product_bytes_do_not_depend_on_thread_count():
    """Unchunked, u @ u.T changes bits between 1 and 2 OpenBLAS threads at
    m = 420 and 500, and the similarity backward at 420, 500 and 1000."""
    assert run_with_threads("1", PRODUCT_BYTES) == run_with_threads("2", PRODUCT_BYTES)


LOSS_CPU_PER_WALL = """
import time, numpy as np
from ranksmooth.ranking import EmbeddingBatch
from ranksmooth.smoothap import SmoothApConfig, smooth_ap_loss
rng = np.random.default_rng(0)
batch = EmbeddingBatch.from_raw(rng.standard_normal((256, 16)), np.repeat(np.arange(64), 4))
cfg = SmoothApConfig(0.01)
smooth_ap_loss(batch, cfg)
wall, cpu = time.perf_counter(), time.process_time()
while time.perf_counter() - wall < 0.5:
    smooth_ap_loss(batch, cfg)
print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for a second BLAS thread")
def test_loss_keeps_blas_workers_asleep():
    """Awake OpenBLAS workers spin between products. With 2 threads allowed,
    the m = 256 loss with unchunked products used 1.45-2.0 s of process CPU
    per wall second on 2 cores; on one thread it uses at most 1."""
    assert float(run_with_threads("2", LOSS_CPU_PER_WALL)) <= 1.2


LOSS_PAGE_FAULTS = """
import resource, numpy as np
from ranksmooth.ranking import EmbeddingBatch
from ranksmooth.smoothap import SmoothApConfig, smooth_ap_loss
rng = np.random.default_rng(0)
batch = EmbeddingBatch.from_raw(rng.standard_normal((256, 16)), np.repeat(np.arange(64), 4))
cfg = SmoothApConfig()
for _ in range(3):
    smooth_ap_loss(batch, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    smooth_ap_loss(batch, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="rests on glibc's adaptive mmap threshold")
def test_loss_keeps_its_scratch_pages_across_calls():
    """In a fresh process, 20 calls of the B = 256, 4-per-class loss took
    12840-12860 minor page faults when glibc served its Gram, score gradient and
    block temporaries from fresh mmapped pages; with the thresholds raised
    at linalg's import they reuse heap pages and took 0."""
    assert int(run_with_threads("1", LOSS_PAGE_FAULTS)) < 200


def test_product_assembles_its_row_chunks():
    """At 1000 x 16 against its transpose a chunk holds 262144 // 16000 = 16
    rows; the chunks cover the rows in order and hold the product's bits."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1000, 16))
    chunks = list(linalg.row_products(a, a.T))
    assert [(rows.start, len(chunk)) for rows, chunk in chunks] == [(s, 16) for s in range(0, 992, 16)] + [(992, 8)]
    assert np.concatenate([chunk for _, chunk in chunks]).tobytes() == linalg.product(a, a.T).tobytes()
