"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions of ``bundleflow`` at the sites that look them up
(module globals, class attributes, the verify group table) and restores the
originals afterwards.  Each wrapped call opens a span (name, start, end,
parent span, operation id) kept in compact arrays; a span's self time is its
duration minus the time covered by its child spans.  The hottest leaf,
scalar-field evaluation, is aggregated (count and self time, charged to its
parent span) instead of stored span by span: a single pass evaluates
millions of fields.  RK4/Euler steps are counted, not timed.
"""

from __future__ import annotations

import os
import time
from array import array
from pathlib import Path

import numpy as np

# The metric names are fixed (BENCHMARK.json lists them), so the groups and
# methods are spelled out rather than discovered.
VERIFY_GROUPS = (
    "structure",
    "euclid_oblique",
    "exp2d",
    "flat_diag",
    "poly2d",
    "curvature_power",
    "frenet",
    "mirror",
    "lift_equivalence",
)
GEOMETRY_METHODS = (
    "metric_at",
    "phi_at",
    "christoffel_at",
    "christoffel_grad_at",
    "riemann_tensor_at",
)
# Per-layer metrics the traced run reports, in output order: (name, unit).
LAYER_METRICS = (
    [
        ("expressions.field_eval.calls", "count"),
        ("expressions.field_eval.self_s", "s"),
        ("expressions.field_eval.per_step", "calls/step"),
    ]
    + [(f"geometry.{m}.{k}", u) for m in GEOMETRY_METHODS for k, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("geometry.christoffel_at.per_rhs", "calls/rhs"),
        ("geometry.checks.self_s", "s"),
        ("bundle.rhs.calls", "count"),
        ("bundle.rhs.self_s", "s"),
        ("bundle.covariant_targets.self_s", "s"),
        ("bundle.geodesic_residual.self_s", "s"),
        ("bundle.phi_mirror.self_s", "s"),
        ("integrate.steps", "count"),
        ("integrate.integrate.self_s", "s"),
        ("integrate.compute_monitors.self_s", "s"),
        ("frenet.arc_length_reparam.self_s", "s"),
        ("frenet.covariant_jets.self_s", "s"),
        ("frenet.frenet_curvatures.self_s", "s"),
        ("catalog.entry.calls", "count"),
        ("catalog.entry.self_s", "s"),
        ("catalog.trajectory.self_s", "s"),
    ]
    + [(f"verify.{g}.s", "s") for g in VERIFY_GROUPS]
    + [
        ("scenario.load_scenario.self_s", "s"),
        ("cli.output.self_s", "s"),
        ("cli.output.bytes", "bytes"),
        ("trace.spans", "count"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Collects spans and per-name totals for one traced pass at a time."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = -1
        # spans, one entry per wrapped call (pre-order)
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [start, child_time, span_index]
        self._rhs_depth = 0
        self.reset_totals()

    # -- bookkeeping -------------------------------------------------------

    def reset_totals(self) -> None:
        """Start a new pass: zero the per-name totals (spans are kept)."""
        n = len(self.names)
        self.calls = [0] * n
        self.calls_in_rhs = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for totals in (self.calls, self.calls_in_rhs):
                totals.append(0)
            for totals in (self.self_s, self.total_s):
                totals.append(0.0)
        return self._ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict:
        """Per-name totals of the current pass."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {
                "calls": self.calls[nid],
                "calls_in_rhs": self.calls_in_rhs[nid],
                "self_s": self.self_s[nid],
                "total_s": self.total_s[nid],
            }
        return out

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, *, is_rhs: bool = False):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        nid = self._id(name)
        clock, stack = self.clock, self._stack

        def traced(*args, **kwargs):
            if self._rhs_depth:
                self.calls_in_rhs[nid] += 1
            if is_rhs:
                self._rhs_depth += 1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][2] if stack else -1)
            frame = [clock(), 0.0, idx]
            self.span_start.append(frame[0])
            self.span_end.append(0.0)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self.span_end[idx] = end
                if stack:
                    stack[-1][1] += dur
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                self.total_s[nid] += dur
                if is_rhs:
                    self._rhs_depth -= 1

        return traced

    def leaf(self, name: str, fn):
        """Wrap a hot leaf: count and time it without storing spans."""
        nid = self._id(name)
        clock, stack = self.clock, self._stack

        def traced(*args, **kwargs):
            if self._rhs_depth:
                self.calls_in_rhs[nid] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                if stack:
                    stack[-1][1] += dur
                self.calls[nid] += 1
                self.self_s[nid] += dur
                self.total_s[nid] += dur

        return traced

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that calls are counted, not timed."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            self.calls[nid] += 1
            return fn(*args, **kwargs)

        return traced

    def write_spans(self, path: Path, t0: float) -> None:
        """Save every span to ``path`` (.npz, times relative to ``t0``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_s=np.frombuffer(self.span_start, dtype=np.float64) - t0,
            end_s=np.frombuffer(self.span_end, dtype=np.float64) - t0,
        )


class Patches:
    """Attribute replacements that can be undone; missing sites are noted."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, make, label: str) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap_item(self, table: dict, key: str, make, label: str) -> None:
        if key not in table:
            self.missing.append(label)
            return
        self._saved.append((table, key, table[key]))
        table[key] = make(table[key])

    def undo(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def install(tracer: Tracer, bf) -> Patches:
    """Wrap bundleflow's public layers where their callers look them up."""
    p = Patches()
    cli, verify, integ = bf.cli, bf.verify, bf.integrate
    bundle, geometry, catalog = bf.bundle, bf.geometry, bf.catalog
    field_cls = bf.expressions.ScalarField
    metric_cls = geometry.MetricStructure

    p.wrap(field_cls, "__call__", lambda f: tracer.leaf("expressions.field_eval", f),
           "expressions.ScalarField.__call__")
    for meth in GEOMETRY_METHODS:
        p.wrap(metric_cls, meth, lambda f, m=meth: tracer.span(f"geometry.{m}", f),
               f"geometry.MetricStructure.{meth}")
    for mod in (cli, verify):
        for fn in ("check_norden", "check_parallel_phi", "check_curvature_purity"):
            p.wrap(mod, fn, lambda f: tracer.span("geometry.checks", f),
                   f"{mod.__name__}.{fn}")

    def traced_make_rhs(make_rhs):
        def make(*args, **kwargs):
            return tracer.span("bundle.rhs", make_rhs(*args, **kwargs), is_rhs=True)

        return make

    p.wrap(integ, "make_rhs", traced_make_rhs, "integrate.make_rhs")
    p.wrap(bundle, "covariant_targets", lambda f: tracer.span("bundle.covariant_targets", f),
           "bundle.covariant_targets")
    for fn in ("geodesic_residual", "phi_mirror"):
        p.wrap(verify, fn, lambda f, fn=fn: tracer.span(f"bundle.{fn}", f), f"verify.{fn}")

    for mod in (cli, verify, integ):
        p.wrap(mod, "integrate", lambda f: tracer.span("integrate.integrate", f),
               f"{mod.__name__}.integrate")
    for fn in ("_rk4_step", "_euler_step"):
        p.wrap(integ, fn, lambda f: tracer.counted("integrate.steps", f), f"integrate.{fn}")
    for mod in (integ, catalog):
        p.wrap(mod, "compute_monitors", lambda f: tracer.span("integrate.compute_monitors", f),
               f"{mod.__name__}.compute_monitors")

    for mod, names in ((cli, ("arc_length_reparam", "covariant_jets", "frenet_curvatures")),
                       (verify, ("covariant_jets", "frenet_curvatures"))):
        for fn in names:
            p.wrap(mod, fn, lambda f, fn=fn: tracer.span(f"frenet.{fn}", f),
                   f"{mod.__name__}.{fn}")

    p.wrap(catalog, "entry", lambda f: tracer.span("catalog.entry", f), "catalog.entry")
    p.wrap(catalog.ClosedForm, "trajectory", lambda f: tracer.span("catalog.trajectory", f),
           "catalog.ClosedForm.trajectory")
    groups = getattr(verify, "_GROUPS", {})
    for g in VERIFY_GROUPS:
        p.wrap_item(groups, g, lambda f, g=g: tracer.span(f"verify.{g}", f), f"verify._GROUPS[{g}]")
    p.wrap(cli, "load_scenario", lambda f: tracer.span("scenario.load_scenario", f),
           "cli.load_scenario")

    def traced_write_rows(write_rows):
        inner = tracer.span("cli.output", write_rows)

        def write(path, *args, **kwargs):
            out = inner(path, *args, **kwargs)
            tracer.count("cli.output.bytes", os.path.getsize(path))
            return out

        return write

    p.wrap(cli, "_write_rows", traced_write_rows, "cli._write_rows")
    return p


def layer_values(totals: dict, counters: dict) -> dict:
    """Per-layer metric values of one traced pass (trace.* excluded)."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    steps = get("integrate.steps", "calls")
    rhs = get("bundle.rhs", "calls")
    field_in_rhs = get("expressions.field_eval", "calls_in_rhs")
    chris_in_rhs = get("geometry.christoffel_at", "calls_in_rhs")
    out = {
        "expressions.field_eval.calls": get("expressions.field_eval", "calls"),
        "expressions.field_eval.self_s": get("expressions.field_eval", "self_s"),
        "expressions.field_eval.per_step": field_in_rhs / steps if steps else 0.0,
    }
    for m in GEOMETRY_METHODS:
        out[f"geometry.{m}.calls"] = get(f"geometry.{m}", "calls")
        out[f"geometry.{m}.self_s"] = get(f"geometry.{m}", "self_s")
    out["geometry.christoffel_at.per_rhs"] = chris_in_rhs / rhs if rhs else 0.0
    out["geometry.checks.self_s"] = get("geometry.checks", "self_s")
    out["bundle.rhs.calls"] = rhs
    for name in ("bundle.rhs", "bundle.covariant_targets", "bundle.geodesic_residual",
                 "bundle.phi_mirror", "integrate.integrate", "integrate.compute_monitors",
                 "frenet.arc_length_reparam", "frenet.covariant_jets",
                 "frenet.frenet_curvatures", "catalog.entry", "catalog.trajectory",
                 "scenario.load_scenario", "cli.output"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["integrate.steps"] = steps
    out["catalog.entry.calls"] = get("catalog.entry", "calls")
    for g in VERIFY_GROUPS:
        out[f"verify.{g}.s"] = get(f"verify.{g}", "total_s")
    out["cli.output.bytes"] = counters.get("cli.output.bytes", 0)
    return out


def exact_counts(totals: dict, counters: dict) -> dict:
    """The counts of a pass that must repeat exactly from pass to pass."""
    out = {name: (v["calls"], v["calls_in_rhs"]) for name, v in totals.items()}
    out.update(counters)
    return out
