"""Per-layer tracing of metallicgeo from outside the package.

The tracer wraps public functions of each module at the place where their
caller looks them up, so no program file changes:

* ``diffcalc`` binds ``inverse_metric``, ``partial``, ``christoffel``,
  ``riemann`` and ``covariant_derivative`` as module globals, and
  ``identities`` imports ``riemann``/``covariant_derivative`` from
  ``diffcalc`` when a check runs, so those are patched on ``diffcalc``;
* ``cli`` binds ``run_suite``, ``connection_report``, ``parse_spec``,
  ``build_bundle`` and ``report_json`` by name, and looks ``zoo.get`` up
  on the ``zoo`` module;
* ``run_suite`` reads the suites from the ``identities.SUITES`` dict, and
  the suites call the checks as ``identities`` globals;
* ``StructureBundle.classification`` calls ``metallic.classify``, and
  ``StructureBundle.context`` builds ``metallic.PointContext``.

Field evaluations are counted on ``bundle.g``/``bundle.jm`` only, the
fields the engine calls. ``bundle.jm`` wraps the source J, so counting every
``TensorField`` call would count each J_M evaluation twice. A call with a
stack of points counts one evaluation per point.

Every traced call is timed with a stack, so a layer's self time is its time
minus the time of the traced calls it made. Calls that run tens of
thousands of times per job (field evaluations, expression evaluation,
``inverse_metric``, ``partial``, ``christoffel``) are aggregated per layer;
every other call is also kept as a span (job id, name, parent span, start,
end) in memory until ``Trace.to_json`` writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# layers aggregated instead of kept as spans: too many calls per job to store
AGGREGATED = frozenset({
    "geometry.field", "exprdsl.eval", "geometry.inverse_metric",
    "diffcalc.partial", "diffcalc.christoffel",
})


class Trace:
    """Spans, per-layer totals and evaluation counters of one traced pass."""

    def __init__(self):
        self.spans: list = []      # [job, name, parent span index or -1, start, end]
        self.stats: dict = {}      # name -> [calls, inclusive s, self s]
        self.counts: dict = {"g_evals": 0, "jm_evals": 0, "g_distinct": 0,
                             "contexts_built": 0, "context_lookups": 0}
        self.jobs = 0
        self._stack: list = []     # frames: [child seconds, span index for children]
        self._job = -1
        self._g_points: set = set()

    def job(self, job_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of job ``job_id``."""
        self._job = job_id
        self._g_points = set()
        try:
            return self.wrap("job", fn)(*args)
        finally:
            self.counts["g_distinct"] += len(self._g_points)
            self.jobs += 1

    def wrap(self, name: str, fn):
        """Return ``fn`` timed as layer ``name``."""
        stack, spans = self._stack, self.spans
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        keep = name not in AGGREGATED

        def traced(*args, **kwargs):
            parent_sid = stack[-1][1] if stack else -1
            if keep:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent_sid
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep:
                    spans[sid] = [self._job, name, parent_sid, t0, t0 + dt]

        return traced

    def count_point(self, kind: str, point):
        pts = np.asarray(point, dtype=float)
        n = 1 if pts.ndim == 1 else pts.shape[0]
        self.counts[f"{kind}_evals"] += n
        if kind == "g":
            if pts.ndim == 1:
                self._g_points.add(pts.tobytes())
            else:
                self._g_points.update(row.tobytes() for row in pts)

    # --- output -------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def incl_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def to_json(self) -> dict:
        return {
            "jobs": self.jobs,
            "counts": dict(self.counts),
            "layers": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.stats.items())},
            "span_fields": ["job", "name", "parent", "start", "end"],
            "spans": self.spans,
        }


@contextmanager
def installed(trace: Trace):
    """Patch every traced boundary to record into ``trace``; undo on exit."""
    from metallicgeo import cli, connections, diffcalc, exprdsl, geometry, identities, metallic, zoo

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, new)

    def traced(owner, attr, name):
        patch(owner, attr, trace.wrap(name, _get(owner, attr)))

    # engine fields, registered when a bundle is built; each entry keeps its
    # field alive so that no other object can take over its id
    engine_fields: dict = {}
    field_layer = trace.wrap("geometry.field", geometry.TensorField.__call__)
    plain_call = geometry.TensorField.__call__

    def field_call(fld, point):
        kind = engine_fields.get(id(fld))
        if kind is None:
            return plain_call(fld, point)
        trace.count_point(kind[0], point)
        return field_layer(fld, point)

    bundle_init = metallic.StructureBundle.__init__

    def init(bundle, *args, **kwargs):
        bundle_init(bundle, *args, **kwargs)
        engine_fields[id(bundle.g)] = ("g", bundle.g)
        engine_fields[id(bundle.jm)] = ("jm", bundle.jm)

    bundle_context = metallic.StructureBundle.context
    point_context = metallic.PointContext

    def context(bundle, point):
        trace.counts["context_lookups"] += 1
        return bundle_context(bundle, point)

    def build_context(*args, **kwargs):
        trace.counts["contexts_built"] += 1
        return point_context(*args, **kwargs)

    patch(geometry.TensorField, "__call__", field_call)
    patch(metallic.StructureBundle, "__init__", init)
    patch(metallic.StructureBundle, "context", context)
    patch(metallic, "PointContext", build_context)
    traced(exprdsl.Expr, "eval", "exprdsl.eval")
    traced(diffcalc, "inverse_metric", "geometry.inverse_metric")
    for fn in ("partial", "christoffel", "riemann", "covariant_derivative"):
        traced(diffcalc, fn, f"diffcalc.{fn}")
    traced(metallic, "classify", "metallic.classify")
    traced(identities.SUITES, "metallic", "identities.suite_metallic")
    traced(identities.SUITES, "nearly", "identities.suite_nearly")
    for fn in ("check_ricci_derivative_cycle", "check_divergence_ricci_chain",
               "check_curvature_commutation"):
        traced(identities, fn, f"identities.{fn}")
    traced(connections, "connection_identity_results", "connections.connection_identity_results")
    traced(cli, "connection_report", "connections.connection_report")
    traced(cli, "run_suite", "identities.run_suite")
    traced(cli, "parse_spec", "specfile.parse_spec")
    traced(cli, "build_bundle", "specfile.build_bundle")
    traced(cli, "report_json", "cli.report_json")
    traced(zoo, "get", "zoo.get")
    try:
        yield trace
    finally:
        for owner, attr, old in reversed(undo):
            _set(owner, attr, old)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
