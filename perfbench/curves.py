"""Kernel cost curves (ungated; not part of the per-workload runs).

    python3 perfbench/curves.py

Run from the root of a checkout. Times smooth_ap_loss at m in
{64, 256, 512, 1024} x |P| in {4, 16}, and mean_ap and recall_at_k at
N in {500, 1000}, one call per point in each of REPEATS rounds on inputs
drawn from SEED, visiting every point in turn within a round so that a
stall lands on all points of that round.
Reports per point the median and quartiles of the call time, ns per work
item (sigmoid terms m^2 (|P| - 1) for the loss, query items N (N - 1) for
the ranking kernels) and, per kernel, the scaling exponent fitted to
log(median time) against log(size). N = 2000 is left out: mean_ap takes
tens of seconds per call there.
"""

import json
import os
import statistics
import sys
import time

from run import THREAD_VARS

LOSS_SIZES = (64, 256, 512, 1024)
LOSS_PER_CLASS = (4, 16)
RANK_SIZES = (500, 1000)
RANK_PER_CLASS = 20
DIM = 16
REPEATS = 5
SEED = 0


def _unit_batch(rs, rng, m, per_class):
    import numpy as np

    x = rng.normal(size=(m, DIM))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return rs.EmbeddingBatch(x, np.repeat(np.arange(m // per_class), per_class))


def _slope(sizes, times):
    import numpy as np

    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ranksmooth", "__init__.py")):
        print("error: run from a ranksmooth checkout (src/ranksmooth not found)", file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np

    import ranksmooth as rs

    rng = np.random.default_rng(SEED)
    cfg = rs.SmoothApConfig()
    points = []  # (kernel, size, per_class, work items, call)
    for per_class in LOSS_PER_CLASS:
        for m in LOSS_SIZES:
            batch = _unit_batch(rs, rng, m, per_class)
            points.append((f"smooth_ap_loss/P{per_class}", m, per_class, m * m * (per_class - 1),
                           lambda b=batch: rs.smooth_ap_loss(b, cfg)))
    for n in RANK_SIZES:
        batch = _unit_batch(rs, rng, n, RANK_PER_CLASS)
        points.append(("mean_ap", n, RANK_PER_CLASS, n * (n - 1), lambda b=batch: rs.mean_ap(b)))
        points.append(("recall_at_k", n, RANK_PER_CLASS, n * (n - 1),
                       lambda b=batch: rs.recall_at_k(b, (1, 4, 16))))

    for point in points:  # warm-up
        point[4]()
    times = [[] for _ in points]
    for _ in range(REPEATS):
        for i, point in enumerate(points):
            t0 = time.perf_counter()
            point[4]()
            times[i].append(time.perf_counter() - t0)

    rows = []
    for (kernel, size, per_class, items, _), samples in zip(points, times):
        median = statistics.median(samples)
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
        rows.append({
            "kernel": kernel, "size": size, "per_class": per_class, "work_items": items,
            "median_s": median, "q1_s": q1, "q3_s": q3, "ns_per_item": median * 1e9 / items,
        })
    exponents = {}
    for kernel in dict.fromkeys(r["kernel"] for r in rows):
        mine = [r for r in rows if r["kernel"] == kernel]
        exponents[kernel] = _slope([r["size"] for r in mine], [r["median_s"] for r in mine])

    for r in rows:
        print(f"{r['kernel']:<22} size {r['size']:>5}  median {r['median_s'] * 1e3:10.3f} ms  "
              f"IQR [{r['q1_s'] * 1e3:.3f}, {r['q3_s'] * 1e3:.3f}] ms  {r['ns_per_item']:8.2f} ns/item")
    for kernel, exponent in exponents.items():
        print(f"{kernel:<22} time ~ size^{exponent:.2f}")
    report = {"seed": SEED, "repeats": REPEATS, "points": rows, "exponents": exponents}
    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(root, ".perfbench_out", "curves.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"exponents": exponents}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
