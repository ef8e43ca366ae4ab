"""ranksmooth benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repeat is a new Python process
(worker.py) that imports `ranksmooth` from ./src, builds the workload's
inputs from the seed, makes the workload's public call(s) once, and then
checks the outputs. Repeats run one at a time (a closed loop with one
caller) until the next one would end after S seconds; there is always at
least one. BLAS and OpenMP get as many threads as the process may use
cores.

With --trace 0 the last stdout line reports the end-to-end metrics, each
the median over the repeats:

  setup_s      process start until ranksmooth is imported and the inputs
               are built (the dataset, and its CSV where the workload reads one)
  wall_s       the workload's public call(s)
  cpu_s        process user+sys CPU over the same interval
  rows_per_s   batch rows pushed through encode+loss per second of wall_s
  peak_rss_mb  peak RSS of the workload process
  quality      test mAP at the last record (training workloads); on
               diag-sweeps one minus the mean AP approximation error at
               the default temperature divided by that at the warmest

With --trace 1 repeats alternate untraced and traced; the traced ones wrap
every public function of ranksmooth's modules (see tracing.py) and the last
line reports the per-layer metrics, medians over the traced repeats, plus
trace.overhead_s, the traced minus the untraced median wall time.

A repeat fails when it raises, times out, or fails an output check
(workloads.py), and when its deterministic outputs differ from the first
repeat's, traced or not. Failures count in `failed` out of `attempted`;
the exit status is 1 when any repeat failed. Per-repeat details, the
environment and the spans go to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("train-default", "train-bigbatch", "diag-sweeps", "train-triplet")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must finish within 180 s; no repeat may run past this.
RUN_DEADLINE_S = 170.0


def _declared_units(root):
    """{metric: unit} for every metric BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def _git_commit(root):
    """HEAD of the checkout, or 'unknown' where it is not a git clone."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(argv, env, timeout):
    """Run one process to completion; on timeout it is killed and reaped."""
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return proc


def _repeat(args, env, outdir, index, traced, deadline):
    workdir = os.path.join(outdir, f"r{index}-{'traced' if traced else 'plain'}")
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    started = time.monotonic()
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
        workdir, result_path, repr(started), "1" if traced else "0",
    ]
    proc = _spawn(argv, env, max(1.0, deadline - started))
    elapsed = time.monotonic() - started
    report = {"ok": False, "errors": []}
    if proc is None:
        report["errors"].append("timed out")
    else:
        try:
            with open(result_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report["errors"].append(f"no result (exit {proc.returncode}): {proc.stderr[-2000:]}")
        if proc.returncode != 0 and report["ok"]:
            report.update(ok=False, errors=[f"exit {proc.returncode}"])
    report.update(traced=traced, elapsed_s=elapsed, index=index)
    return report


def _median(reports, key):
    values = [r[key] for r in reports]
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ranksmooth", "__init__.py")):
        print("error: run from a ranksmooth checkout (src/ranksmooth not found)", file=sys.stderr)
        return 2
    declared = _declared_units(root)
    run_started = time.monotonic()
    deadline = run_started + RUN_DEADLINE_S
    outdir = os.path.join(root, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(nproc)

    # Byte-compile and page in the package once, as an installed copy would
    # be; users do not pay that on every run.
    _spawn([sys.executable, "-c", "import ranksmooth"], env, 60)

    reports = []
    durations = {False: [], True: []}
    while True:
        traced = args.trace == 1 and len(reports) % 2 == 1
        if durations[False] and (args.trace == 0 or durations[True]):
            now = time.monotonic() - run_started
            if now + statistics.median(durations[traced]) > args.seconds:
                break
        report = _repeat(args, env, outdir, len(reports), traced, deadline)
        reports.append(report)
        durations[traced].append(report["elapsed_s"])
        if "timed out" in report["errors"]:
            break

    # Metrics come from every repeat that completed its workload call, also
    # when a check failed afterwards; `failed` says how far to trust them.
    measured = [r for r in reports if "digest" in r]
    for r in measured[1:]:
        if r["digest"] != measured[0]["digest"]:
            r["ok"] = False
            r["errors"].append(f"outputs differ from repeat {measured[0]['index']}")
    failed = sum(not r["ok"] for r in reports)
    plain = [r for r in measured if not r["traced"]]
    traced_reports = [r for r in measured if r["traced"] and "layers" in r]

    if args.trace == 0:
        metrics = {
            "setup_s": _median(plain, "setup_s"),
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "rows_per_s": statistics.median([r["rows"] / r["wall_s"] for r in plain]) if plain else 0.0,
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "quality": _median(plain, "quality"),
        }
        units = declared["end_to_end"]
    else:
        layers = [r["layers"] for r in traced_reports]
        metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]} if layers else {}
        metrics["trace.overhead_s"] = (
            _median(traced_reports, "wall_s") - _median(plain, "wall_s")
            if traced_reports and plain else 0.0
        )
        units = declared["per_layer"]

    environment = {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "threads": {var: env[var] for var in THREAD_VARS},
        **(measured[0]["environment"] if measured else {}),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment, "repeats": reports,
        "failed_frac": failed / len(reports), "metrics": metrics,
    }
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(reports)} repeats, "
          f"failed_frac {failed / len(reports):.3f}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for r in reports:
        for error in r["errors"]:
            print(f"repeat {r['index']} FAILED: {error}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
