"""One repeat of one workload, in a fresh process started by run.py.

Usage: worker.py WORKLOAD SEED WORKDIR RESULT_JSON LAUNCHED_AT TRACE

LAUNCHED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start, the imports and input generation. With TRACE=1 the
public functions are wrapped before setup and the spans are written to
WORKDIR/spans.json after the checks.
"""

import json
import os
import resource
import sys
import time
import traceback

import numpy as np

from tracing import MODULES, ROOT, Tracer


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _layer_metrics(tracer):
    """Per-function and per-module figures of the workload phase."""
    counts = tracer.counts
    selfs = tracer.self_times()
    calls, self_s, durations = {}, {}, {}
    setup_self = {}
    for span, own in zip(tracer.spans, selfs):
        name, start, end, _, run_id = span
        if not run_id.endswith("/workload"):
            setup_self[name] = setup_self.get(name, 0.0) + own
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        durations.setdefault(name, []).append(end - start)

    def pct(name, q):
        d = durations.get(name)
        return float(np.percentile(d, q)) * 1e3 if d else 0.0

    wall = durations[ROOT][0]
    out = {"trace.wall_s": wall, "trace.spans": len(tracer.spans)}
    module_self = {m: 0.0 for m in MODULES}
    for name, value in self_s.items():
        module = name.split(".", 1)[0]
        if module in module_self:
            module_self[module] += value
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value
    out["bench.self_s"] = self_s[ROOT]

    def fn(name, *fields):
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = calls.get(name, 0)
            elif field == "self_s":
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
            else:
                out[f"{name}.{field}"] = pct(name, int(field[4:]))

    fn("ranking.mean_ap", "calls", "self_s")
    items = counts["ranking.mean_ap.query_items"]
    out["ranking.mean_ap.query_items"] = items
    # Inclusive time: a rewrite may drop the exact_ap children altogether.
    map_s = sum(durations.get("ranking.mean_ap", []))
    out["ranking.mean_ap.ns_per_query_item"] = map_s * 1e9 / items if items else 0.0
    fn("ranking.recall_at_k", "self_s")
    fn("ranking.exact_ap", "calls", "self_s")
    fn("smoothap.smooth_ap_loss", "calls", "self_s", "ms_p50", "ms_p90")
    terms = counts["smoothap.sigmoid_terms"]
    loss_s = sum(durations.get("smoothap.smooth_ap_loss", []))
    out["smoothap.sigmoid_terms"] = terms
    out["smoothap.sigmoid_terms_per_s"] = terms / loss_s if loss_s else 0.0
    base = counts["smoothap.region_terms"]
    out["smoothap.useful_frac"] = counts["smoothap.region_useful"] / base if base else 0.0
    out["smoothap.useful_frac_base"] = base
    fn("smoothap.batch_ap_error", "self_s")
    fn("smoothap.smooth_ap_query", "calls", "self_s")
    fn("smoothap.sigmoid", "calls", "self_s")
    fn("smoothap.batch_operating_region", "calls", "self_s")
    fn("smoothap.operating_region_halfwidth", "calls")
    fn("smoothap.sigmoid_grad", "calls", "self_s")
    fn("data.next_batch", "calls", "self_s", "ms_p50")
    fn("data.load_features_csv", "self_s")
    out["data.save_features_csv.self_s"] = setup_self.get("data.save_features_csv", 0.0)
    fn("encoder.encode", "self_s")
    fn("encoder.encode_backward", "self_s")
    fn("encoder.adam_step", "self_s")
    out["encoder.flops"] = counts["encoder.flops"]
    fn("baselines.triplet_loss", "calls", "self_s", "ms_p50")
    out["baselines.triplets"] = counts["baselines.triplets"]
    fn("experiments.train", "self_s")
    fn("experiments.approx_error_sweep", "self_s")
    fn("experiments.operating_region_sweep", "self_s")
    fn("cli.main", "self_s")
    return out


def _numpy_environment():
    env = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        env["blas"] = {"name": "unknown", "version": "unknown"}
    return env


def main(argv):
    name, seed, workdir, result_path, launched_at, trace = argv
    seed, launched_at, trace = int(seed), float(launched_at), trace == "1"
    report = {"ok": False, "errors": []}
    tracer = None
    try:
        from workloads import WORKLOADS  # imports ranksmooth, within setup_s

        workload = WORKLOADS[name]
        if trace:
            tracer = Tracer(f"{name}/seed{seed}/{os.path.basename(workdir)}")
            tracer.install()
        inputs = workload.setup(seed, workdir)
        report["setup_s"] = time.monotonic() - launched_at

        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        if tracer is None:
            result = workload.run(inputs)
        else:
            result = tracer.root(workload.run, inputs)
        t1 = time.perf_counter()
        cpu1 = _cpu_seconds()
        if tracer is not None:
            tracer.uninstall()
        report.update(
            wall_s=t1 - t0,
            cpu_s=cpu1 - cpu0,
            rows=workload.rows(inputs),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )

        outcome = workload.check(inputs, result)
        report.update(
            errors=outcome.errors, quality=outcome.quality, digest=outcome.digest,
            environment=_numpy_environment(),
        )
        if tracer is not None:
            layers = _layer_metrics(tracer)
            layers["cli.bytes_written"] = outcome.bytes_written
            report["layers"] = layers
            tracer.write(os.path.join(workdir, "spans.json"))
        report["ok"] = not outcome.errors
    except Exception:  # boundary: the parent counts this repeat as failed
        report["errors"].append(traceback.format_exc())
    finally:
        # Generated inputs are rebuilt from the seed; only results are kept.
        data = os.path.join(workdir, "data.csv")
        if os.path.exists(data):
            os.remove(data)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
