"""Spans and counters recorded around secdom's public functions.

The tracer replaces each traced function, wherever a secdom module has bound
it (``from .secure import exact_gamma_2s`` binds it again in ``cli``), with a
wrapper that records a span: name, layer, start, end, parent span and item
id.  Spans stay in memory until the run writes them out.  The program itself
is not changed; only the benchmark's own files do this.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

# (module, function, layer).  Calls nest: cli -> graphio / secure /
# domination, secure -> domination / kernel.
SPANNED = (
    ("secdom.cli", "main", "cli"),
    ("secdom.graphio", "parse_graph", "graphio"),
    ("secdom.domination", "exact_minimum", "domination"),
    ("secdom.kernel", "solve_level", "kernel"),
    ("secdom.secure", "exact_gamma_2s", "secure"),
    ("secdom.secure", "verify_2sds", "secure"),
    ("secdom.secure", "first_failure", "secure"),
    ("secdom.secure", "approx_2sds", "secure"),
)
GADGETS = ("generate", "gs_graph", "inapprox_gadget", "apx_gadget")
PROGRAM_LAYERS = ("cli", "graphio", "domination", "kernel", "secure", "enumgraphs")

# Counts that must repeat exactly from pass to pass and run to run.
EXACT = (
    "kernel.calls", "kernel.subsets_examined", "domination.calls",
    "domination.subsets_examined", "secure.pair_checks", "graphio.bytes",
    "enumgraphs.classes",
)
UNITS = {
    "kernel.busy_s": "s", "kernel.calls": "count", "kernel.subsets_examined": "count",
    "kernel.subsets_per_s": "1/s", "kernel.witness_ratio": "ratio",
    "domination.busy_s": "s", "domination.calls": "count",
    "domination.subsets_examined": "count", "domination.subsets_per_s": "1/s",
    "secure.certificate_self_s": "s", "secure.self_s": "s", "secure.pair_checks": "count",
    "secure.pair_checks_per_s": "1/s", "secure.verify_s": "s",
    "secure.first_failure_s": "s", "secure.approx_s": "s",
    "graphio.parse_s": "s", "graphio.bytes": "bytes", "cli.self_s": "s",
    "enumgraphs.busy_s": "s", "enumgraphs.classes": "count",
    "enumgraphs.classes_per_s": "1/s", "bench.self_s": "s", "trace.wall_s": "s",
    "trace.accounted_ratio": "ratio",
}


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, item]
        self.stack = []
        self.item = None
        self.counts = Counter()
        self.defender_s = 0.0

    def begin(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, perf_counter(), None, parent, self.item])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][3] = perf_counter()

    def _spanned(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            self.begin(f"{layer}.{name}", layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result):
        c = self.counts
        if name == "parse_graph" and isinstance(args[0], str):
            c["graphio.bytes"] += os.path.getsize(args[0])
        elif name == "exact_minimum":
            c["domination.calls"] += 1
            c["domination.subsets_examined"] += result.subsets_examined
        elif name == "solve_level":
            c["kernel.calls"] += 1
            c["kernel.subsets_examined"] += result[1]
            c["kernel.witnesses"] += result[0] is not None

    def _generator(self, fn):
        # the work of a lazy generator happens inside next(), so each next()
        # is a span; wrapping only the call would time nothing
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.begin("enumgraphs.next", "enumgraphs")
                try:
                    G = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.counts["enumgraphs.classes"] += 1
                yield G

        return wrapper

    def _find_defenders(self, fn):
        # called once per attack pair: a counter and a summed time, not a span
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.defender_s += perf_counter() - t0
                self.counts["secure.pair_checks"] += 1

        return wrapper

    def install_gadgets(self):
        for name in GADGETS:
            self._replace(
                sys.modules["secdom.gadgets"], name,
                lambda fn, name=name: self._spanned(fn, name, "gadgets"),
            )

    def install(self):
        for module, name, layer in SPANNED:
            self._replace(
                sys.modules[module], name,
                lambda fn, name=name, layer=layer: self._spanned(fn, name, layer),
            )
        self._replace(sys.modules["secdom.secure"], "find_defenders", self._find_defenders)
        self._replace(sys.modules["secdom.enumgraphs"], "connected_graphs", self._generator)

    @staticmethod
    def _replace(module, name, make_wrapper):
        """Rebind `module.name` to a wrapper in every secdom module that
        holds the same function object."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for modname, mod in list(sys.modules.items()):
            if modname == "secdom" or modname.startswith("secdom."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self, first, last):
        """Per-layer self time of spans[first:last]: each span's duration
        minus the durations of its direct children, so no time counts twice."""
        selfs = Counter()
        for name, layer, start, end, parent, _ in self.spans[first:last]:
            selfs[layer] += end - start
            if parent is not None and parent >= first:
                selfs[self.spans[parent][1]] -= end - start
        return selfs

    def busy(self, first, last, name):
        return sum(s[3] - s[2] for s in self.spans[first:last] if s[0] == name)

    def busy_layer(self, first, last, layer):
        """Time in the outermost spans of one layer."""
        return sum(
            s[3] - s[2] for s in self.spans[first:last]
            if s[1] == layer and (s[4] is None or self.spans[s[4]][1] != layer)
        )

    def layer_metrics(self, first, last, wall):
        """Per-layer metrics of one pass, spans[first:last]."""
        c = self.counts
        selfs = self.self_times(first, last)
        kernel_s = self.busy(first, last, "kernel.solve_level")
        dom_s = self.busy(first, last, "domination.exact_minimum")
        enum_s = self.busy(first, last, "enumgraphs.next")
        return {
            "kernel.busy_s": kernel_s,
            "kernel.calls": c["kernel.calls"],
            "kernel.subsets_examined": c["kernel.subsets_examined"],
            "kernel.subsets_per_s": _rate(c["kernel.subsets_examined"], kernel_s),
            "kernel.witness_ratio": _rate(c["kernel.witnesses"], c["kernel.calls"]),
            "domination.busy_s": dom_s,
            "domination.calls": c["domination.calls"],
            "domination.subsets_examined": c["domination.subsets_examined"],
            "domination.subsets_per_s": _rate(c["domination.subsets_examined"], dom_s),
            "secure.certificate_self_s": self.certificate_self(first, last),
            "secure.self_s": selfs["secure"],
            "secure.pair_checks": c["secure.pair_checks"],
            "secure.pair_checks_per_s": _rate(c["secure.pair_checks"], self.defender_s),
            "secure.verify_s": self.busy(first, last, "secure.verify_2sds"),
            "secure.first_failure_s": self.busy(first, last, "secure.first_failure"),
            "secure.approx_s": self.busy(first, last, "secure.approx_2sds"),
            "graphio.parse_s": self.busy(first, last, "graphio.parse_graph"),
            "graphio.bytes": c["graphio.bytes"],
            "cli.self_s": selfs["cli"],
            "enumgraphs.busy_s": enum_s,
            "enumgraphs.classes": c["enumgraphs.classes"],
            "enumgraphs.classes_per_s": _rate(c["enumgraphs.classes"], enum_s),
            "bench.self_s": selfs["bench"],
            "trace.wall_s": wall,
            "trace.accounted_ratio": sum(selfs[k] for k in PROGRAM_LAYERS) / wall,
        }

    def certificate_self(self, first, last):
        """exact_gamma_2s spans minus their domination and kernel children."""
        total = 0.0
        for i in range(first, last):
            name, _, start, end, parent, _ = self.spans[i]
            if name == "secure.exact_gamma_2s":
                total += end - start
            elif parent is not None and self.spans[parent][0] == "secure.exact_gamma_2s":
                total -= end - start
        return total

    def write(self, path):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, item in self.spans:
                fh.write(json.dumps(
                    {"name": name, "layer": layer, "start": start, "end": end,
                     "parent": parent, "item": item}
                ) + "\n")
