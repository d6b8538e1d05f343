"""Spans around the layers' entry points, recorded from outside the program.

`Tracer.install` replaces each entry point in LAYERS by a timing wrapper,
in every `todacensus` module that holds a reference to it (modules import
each other's functions by name), and `uninstall` puts the originals back.
A name in LAYERS that no longer exists raises LookupError: a renamed layer
must break the traced run, never read as zero.

A span records name, start, end, parent and a few counts, and is kept in
memory until the run ends.  Hot leaves (`wp_bundle` and the two batched
residual kernels, called up to ~10^5 times a pass) are not spans: their
calls, time and points are summed per enclosing span.  A span's self time
is its duration minus its child spans and the leaves summed under it.
"""

import sys
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


def _points(args, kwargs, out):
    return {"points": int(np.size(args[3]))}


def _starts(args, kwargs, out):
    return {"starts": len(args[3])}


def _cluster_points(args, kwargs, out):
    return {"points": len(args[0])}


def _census(args, kwargs, rep):
    return {"starts_used": rep.starts_used, "hits": sum(c.hits for c in rep.clusters),
            "total": rep.total, "doublings": rep.doublings}


def _text_bytes(args, kwargs, text):
    return {"bytes": len(text.encode())}


# (module, attribute, span name, hot leaf, counter of (args, kwargs, result))
LAYERS = (
    ("todacensus.elliptic", "EllipticContext.wp_bundle", "elliptic.wp_bundle", True, None),
    ("todacensus.elliptic", "compute_invariants", "elliptic.compute_invariants", False, None),
    ("todacensus.apparency", "m0_residual_batch", "apparency.m0_residual_batch", True, _points),
    ("todacensus.apparency", "m0_value_batch", "apparency.m0_value_batch", True, _points),
    ("todacensus.apparency", "build_even_poly", "apparency.build_even_poly", False, None),
    ("todacensus.solver", "solve_m0", "solver.solve_m0", False, _census),
    ("todacensus.solver", "_newton_m0_batch", "solver.newton", False, _starts),
    ("todacensus.solver", "_cluster_points", "solver.cluster", False, _cluster_points),
    ("todacensus.monodromy", "transport", "monodromy.transport", False, None),
    ("todacensus.monodromy", "monodromy_pair", "monodromy.monodromy_pair", False, None),
    ("todacensus.monodromy", "unitarize", "monodromy.unitarize", False, None),
    ("todacensus.monodromy", "reconstruct_and_check", "monodromy.reconstruct_and_check", False, None),
    ("todacensus.jsonio", "dumps_canonical", "jsonio.dumps_canonical", False, _text_bytes),
    ("todacensus.jsonio", "rows_to_csv", "jsonio.rows_to_csv", False, _text_bytes),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, None, parent
        self.counts = None


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []
        self.stack = []                       # indices of open spans
        self.leaves = defaultdict(lambda: [0, 0.0, 0])  # (parent, name) -> calls, s, points
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, perf_counter(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return wrapper

    def _leaf(self, name, fn, counter):
        leaves, stack = self.leaves, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                agg = leaves[(stack[-1] if stack else None, name)]
                agg[0] += 1
                agg[1] += perf_counter() - t0
            if counter is not None:
                agg[2] += counter(args, kwargs, out)["points"]
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        try:
            for modname, attr, name, hot, counter in self.layers:
                self._install_one(modname, attr, name, hot, counter)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, modname, attr, name, hot, counter):
        module = sys.modules.get(modname)
        if module is None:
            raise LookupError("traced module %s is not loaded" % modname)
        make = self._leaf if hot else self._span
        owner_name, _, fname = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or fname not in vars(owner):
                raise LookupError("traced entry point %s.%s no longer exists" % (modname, attr))
            orig = vars(owner)[fname]
            setattr(owner, fname, make(name, orig, counter))
            self._undo.append((owner, fname, orig))
            return
        if not hasattr(module, attr):
            raise LookupError("traced entry point %s.%s no longer exists" % (modname, attr))
        orig = getattr(module, attr)
        wrapped = make(name, orig, counter)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "todacensus":
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- summaries -----------------------------------------------------------

    def layer_metrics(self, traced_wall, untraced_wall, raw_wall, steal):
        """Per-layer metric values (see README.md) for the spans recorded.

        traced_wall and untraced_wall are the pass times as the end-to-end
        metrics report them; spans are plain wall time, so the unattributed
        remainder is taken from raw_wall, the traced pass's wall time."""
        spans, leaves = self.spans, self.leaves
        if self.stack or any(s.end is None for s in spans):
            raise RuntimeError("tracer summarized with spans still open")
        dur = [s.end - s.start for s in spans]
        inner = [0.0] * len(spans)  # time of direct children, spans and leaves
        for i, s in enumerate(spans):
            if s.parent is not None:
                inner[s.parent] += dur[i]
        for (parent, _), (_, secs, _) in leaves.items():
            if parent is not None:
                inner[parent] += secs
        self_s = [d - c for d, c in zip(dur, inner)]

        def spans_named(name):
            return [i for i, s in enumerate(spans) if s.name == name]

        def total(idx, key):
            return sum(spans[i].counts[key] for i in idx if spans[i].counts)

        def leaf(name):
            calls = secs = points = 0
            for (_, lname), (c, s, p) in leaves.items():
                if lname == name:
                    calls, secs, points = calls + c, secs + s, points + p
            return calls, secs, points

        under_transport = {}

        def in_transport(i):
            if i is None:
                return False
            if i not in under_transport:
                under_transport[i] = (spans[i].name == "monodromy.transport"
                                      or in_transport(spans[i].parent))
            return under_transport[i]

        m = {}

        def put(name, value, unit):
            m[name] = (float(value), unit)

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        calls, secs, _ = leaf("elliptic.wp_bundle")
        put("elliptic.wp_bundle.calls", calls, "count")
        put("elliptic.wp_bundle.s", secs, "s")
        put("elliptic.wp_bundle.us_per_call", per(secs, calls, 1e6), "us")
        for kernel in ("apparency.m0_residual_batch", "apparency.m0_value_batch"):
            calls, secs, points = leaf(kernel)
            put(kernel + ".calls", calls, "count")
            put(kernel + ".points", points, "count")
            put(kernel + ".us_per_point", per(secs, points, 1e6), "us")
            put(kernel + ".s", secs, "s")
        for name in ("elliptic.compute_invariants", "apparency.build_even_poly"):
            idx = spans_named(name)
            put(name + ".calls", len(idx), "count")
            put(name + ".s", sum(dur[i] for i in idx), "s")

        idx = spans_named("solver.newton")
        put("solver.newton.calls", len(idx), "count")
        put("solver.newton.starts", total(idx, "starts"), "count")
        put("solver.newton.self_s", sum(self_s[i] for i in idx), "s")
        idx = spans_named("solver.cluster")
        put("solver.cluster.calls", len(idx), "count")
        put("solver.cluster.points", total(idx, "points"), "count")
        put("solver.cluster.s", sum(dur[i] for i in idx), "s")
        idx = spans_named("solver.solve_m0")
        starts, found = total(idx, "starts_used"), total(idx, "total")
        put("solver.accept_ratio", per(total(idx, "hits"), starts), "frac")
        put("solver.starts_per_root", per(starts, found), "count")
        put("solver.doublings", total(idx, "doublings"), "count")

        idx = spans_named("monodromy.transport")
        put("monodromy.transport.calls", len(idx), "count")
        put("monodromy.transport.self_s", sum(self_s[i] for i in idx), "s")
        put("monodromy.coeff_evals",
            sum(c for (p, lname), (c, _, _) in leaves.items()
                if lname == "elliptic.wp_bundle" and in_transport(p)), "count")
        put("monodromy.monodromy_pair.s", sum(dur[i] for i in spans_named("monodromy.monodromy_pair")), "s")
        put("monodromy.reconstruct_and_check.self_s",
            sum(self_s[i] for i in spans_named("monodromy.reconstruct_and_check")), "s")
        put("monodromy.unitarize.s", sum(dur[i] for i in spans_named("monodromy.unitarize")), "s")

        for name in ("jsonio.dumps_canonical", "jsonio.rows_to_csv"):
            idx = spans_named(name)
            put(name + ".s", sum(dur[i] for i in idx), "s")
            put(name + ".bytes", total(idx, "bytes"), "bytes")

        attributed = sum(dur[i] for i, s in enumerate(spans) if s.parent is None)
        attributed += sum(secs for (p, _), (_, secs, _) in leaves.items() if p is None)
        put("trace.spans", len(spans), "count")
        put("trace.wall_s", traced_wall, "s")
        put("trace.untraced_wall_s", untraced_wall, "s")
        put("trace.overhead_s", traced_wall - untraced_wall, "s")
        put("trace.steal_s", steal, "s")
        put("trace.unattributed_s", raw_wall - attributed, "s")
        return m
