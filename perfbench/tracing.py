"""Span tracing of ranksmooth's public functions, installed from outside.

The tracer replaces every public function of the traced modules at each
module binding that refers to it (including re-exports such as
`ranksmooth.exact_ap` or `smoothap.exact_ap`), so calls between modules
and within a module are both seen. Nothing under `src/` knows about it.

Spans are kept in memory as [name, start, end, parent, run id] and written
out once, by `write`. Self time is a span's duration minus the part of it
covered by its child spans. Work counts (query items, sigmoid terms,
triples, flops) are taken at the same boundaries from the call's arguments
and result, after the span's clock has stopped.
"""

import collections
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("data", "encoder", "smoothap", "ranking", "baselines", "experiments", "cli")
ROOT = "bench.workload"


def _class_counts(class_ids):
    _, counts = np.unique(np.asarray(class_ids), return_counts=True)
    return counts


def _linear_flops(rows, params):
    # Forward matmul flops: 2 * rows * (fan_in * fan_out) per weight matrix.
    weights = [params.weight] if hasattr(params, "weight") else [params.weight_in, params.weight_out]
    return 2 * rows * sum(int(w.size) for w in weights)


def _count_mean_ap(counts, args, kwargs, result):
    n = len(args[0])
    counts["ranking.mean_ap.query_items"] += n * (n - 1)


def _count_smooth_ap_loss(counts, args, kwargs, result):
    batch = args[0]
    c = _class_counts(batch.class_ids)
    counts["smoothap.sigmoid_terms"] += int((c * (c - 1)).sum()) * len(batch)


def _count_operating_region(counts, args, kwargs, result):
    m = len(args[0])
    counts["smoothap.region_terms"] += m**3
    counts["smoothap.region_useful"] += float(result) * m**3


def _count_triplets(counts, args, kwargs, result):
    batch = args[0]
    m = len(batch)
    c = _class_counts(batch.class_ids)
    counts["baselines.triplets"] += int((c * (c - 1) * (m - c)).sum())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_encode(counts, args, kwargs, result):
    counts["encoder.flops"] += _linear_flops(len(args[0]), _arg(args, kwargs, 2, "params"))


def _count_encode_backward(counts, args, kwargs, result):
    features, params = args[0], _arg(args, kwargs, 1, "params")
    rows = len(features)
    # Recomputed forward plus one weight-gradient matmul per layer; the
    # hidden-layer variant also propagates through weight_out.
    flops = 2 * _linear_flops(rows, params)
    if hasattr(params, "weight_out"):
        flops += 2 * rows * int(params.weight_out.size)
    counts["encoder.flops"] += flops


COUNTERS = {
    "ranking.mean_ap": _count_mean_ap,
    "smoothap.smooth_ap_loss": _count_smooth_ap_loss,
    "smoothap.batch_operating_region": _count_operating_region,
    "baselines.triplet_loss": _count_triplets,
    "encoder.encode": _count_encode,
    "encoder.encode_backward": _count_encode_backward,
}


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.span_run_id = f"{run_id}/setup"
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.span_run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of MODULES at all of its bindings."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"ranksmooth.{short}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "ranksmooth" or name.startswith("ranksmooth.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def root(self, fn, *args, **kwargs):
        """Run fn under the root span of the workload phase."""
        self.span_run_id = f"{self.run_id}/workload"
        return self._wrap(ROOT, fn)(*args, **kwargs)

    def self_times(self):
        """Self time of every span, in span order.

        Spans nest (one thread, each child inside its parent), so the self
        times of a root span and of all its descendants sum to the root's
        duration: the per-module self times of the workload phase add up
        to its traced wall time by construction.
        """
        children = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c in children[i]:  # appended in start order
                lo = max(self.spans[c][1], cursor)
                hi = min(self.spans[c][2], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent", "run_id"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
