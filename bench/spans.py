"""Span tracing of the library's layers, installed from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every
module namespace that binds it, so calls a layer makes through a name it
imported from another layer (``rank2.block_chern``, ``catalog.whitney_sum``,
``cli.classify_rank2``, ...) nest as child spans.  Spans are kept in memory as
(name, start_ns, end_ns, parent index) and written out when the run ends;
``uninstall`` puts every original back.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (layer, module attribute) pairs traced as spans.
SPANS = (
    ("chow", "twist"),
    ("chow", "euler_char"),
    ("chow", "whitney_sum"),
    ("chow", "forced_c2"),
    ("chow", "forced_c3"),
    ("catalog", "block_chern"),
    ("catalog", "table_export_rows"),
    ("catalog", "verify_table1"),
    ("rank2", "classify_rank2"),
    ("acm", "witness"),
    ("acm", "validate_witness"),
    ("acm", "enumerate_admissible"),
    ("acm", "oracle_enumerate"),
    ("cli", "run"),
)

_VERDICTS = {"TwistOfSL": "twist_SL", "TwistOfSC": "twist_SC",
             "TwistOfSE": "twist_SE", "split": "split", "none": "none"}

# Counts recorded from a traced function's result: span name -> (metric, f).
_RESULT_COUNTS = {
    "rank2.classify_rank2": lambda v: ("rank2.verdict." + _VERDICTS[v.kind], 1),
    "acm.witness": lambda dec: ("acm.witness.blocks", len(dec.blocks)),
    "acm.enumerate_admissible": lambda ts: ("acm.enumerate_admissible.triples", len(ts)),
    "acm.oracle_enumerate": lambda decs: ("acm.oracle_enumerate.found", len(decs)),
}

# The per-layer metrics a traced run reports, with their units.  Kept in
# step with "per_layer" in BENCHMARK.json by the self-test.
PER_LAYER = (
    [(f"{n}.calls", "count") for n in (
        "chow.euler_char", "chow.twist", "chow.whitney_sum", "chow.forced_c2",
        "chow.forced_c3", "catalog.block_chern", "catalog.Decomposition.chern",
        "catalog.table_export_rows", "catalog.verify_table1", "rank2.classify_rank2",
        "acm.witness", "acm.validate_witness", "acm.enumerate_admissible",
        "acm.oracle_enumerate", "cli.run")]
    + [(f"{n}.self_us", "us") for n in (
        "chow.euler_char", "chow.twist", "chow.whitney_sum", "catalog.block_chern",
        "catalog.Decomposition.chern", "catalog.table_export_rows",
        "catalog.verify_table1", "rank2.classify_rank2", "acm.witness",
        "acm.validate_witness", "acm.enumerate_admissible", "acm.oracle_enumerate",
        "cli.run")]
    + [(n, "count") for n in (
        "catalog.Decomposition.created", "catalog.Decomposition.blocks_sorted",
        "rank2.verdict.twist_SL", "rank2.verdict.twist_SC", "rank2.verdict.twist_SE",
        "rank2.verdict.split", "rank2.verdict.none", "acm.witness.blocks",
        "acm.enumerate_admissible.triples", "acm.oracle_enumerate.found")]
    + [("cli.stdout_bytes", "bytes"), ("cli.import_ms", "ms"), ("cli.cold_run_ms", "ms")]
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _span(self, name, fn, on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                metric, n = on_result(result)
                counts[metric] += n
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the traced functions of ``package`` (the imported fano_acm)."""
        modules = [package] + [getattr(package, m) for m in ("chow", "catalog", "rank2", "acm", "cli")]
        for layer, attr in SPANS:
            original = getattr(getattr(package, layer), attr)
            name = f"{layer}.{attr}"
            wrapper = self._span(name, original, _RESULT_COUNTS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        dec = package.catalog.Decomposition
        self._patch(dec, "chern", self._span("catalog.Decomposition.chern", dec.chern))
        post_init, counts = dec.__post_init__, self.counts

        def counted_post_init(obj):
            counts["catalog.Decomposition.created"] += 1
            counts["catalog.Decomposition.blocks_sorted"] += len(obj.blocks)
            post_init(obj)

        self._patch(dec, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self):
        """Calls and self time per span name, plus the recorded counts."""
        calls, total, children = Counter(), Counter(), [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        for (name, _, _, _), child in zip(self.spans, children):
            total[name] -= child
        values = dict(self.counts)
        for name in calls:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_us"] = total[name] / 1000
        return values

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh, separators=(",", ":"))
