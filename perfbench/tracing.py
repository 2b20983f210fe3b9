"""Per-layer tracing from outside the program.

Spans are recorded by wrapping the public entry points of each layer —
class methods, or the importing module's name where a function was
bound at import (``repro.morphase.system`` binds ``plan_program``,
``repro.service.session`` binds ``compose_deltas``, ``repro.store.store``
binds ``load_snapshot``).  Nothing inside ``src/`` changes.  A span is
``(id, parent, name, start, end)``; the parent is the innermost open
span of the same thread.  Spans stay in memory and are written out once,
when the run ends.  A layer's self time is its span minus the part of
it that child spans cover.

:data:`LAYERS` is the per-layer metric table: each metric's definition,
the end-to-end metric it should move and the workload where it does its
work.  ``python3 perfbench/run.py --layers`` prints it.
"""

import functools
import importlib
import itertools
import json
import threading
import time

# (module, class or None, attribute, span name)
TARGETS = (
    ("repro.morphase.system", "Morphase", "transform", "morphase.transform"),
    ("repro.morphase.system", None, "plan_program", "engine.planner.plan"),
    ("repro.semantics.match", "IndexPool", "prebuild",
     "semantics.match.index_build"),
    ("repro.engine.executor", "Executor", "run_program",
     "engine.executor.run_program"),
    ("repro.engine.executor", "Executor", "freeze", "engine.executor.freeze"),
    ("repro.model.instance", "Instance", "validate",
     "model.instance.validate"),
    ("repro.service.session", "WarehouseSession", "__init__",
     "service.session.warm_build"),
    ("repro.service.session", "WarehouseSession", "ingest_json",
     "service.session.ingest_json"),
    ("repro.service.session", "WarehouseSession", "query_body_json",
     "service.session.query_body_json"),
    ("repro.service.session", "WarehouseSession", "_warm_query_state",
     "service.session.warm_state"),
    ("repro.service.session", None, "compose_deltas",
     "evolution.delta.compose"),
    ("repro.store.store", "WarehouseStore", "decode_delta",
     "store.store.decode_delta"),
    ("repro.store.store", "WarehouseStore", "append", "store.store.append"),
    ("repro.store.store", "WarehouseStore", "export_records",
     "store.store.export_records"),
    ("repro.store.store", None, "load_snapshot", "store.snapshot.load"),
    ("repro.store.wal", "WriteAheadLog", "append", "store.wal.append"),
    ("repro.engine.incremental", "IncrementalTransform", "apply_delta",
     "engine.incremental.transform_apply"),
    ("repro.engine.incremental", "IncrementalAudit", "apply_delta",
     "engine.incremental.audit_apply"),
    ("repro.query.query", "Query", "parse", "query.parse"),
    ("repro.query.query", "Query", "run_planned", "query.run"),
    ("repro.program", None, "compile_program", "program.compile"),
    ("repro.program", None, "run_compiled", "program.run"),
    ("repro.service.replica", "WalReplica", "bootstrap",
     "service.replica.bootstrap"),
    ("repro.service.replica", "WalReplica", "step", "service.replica.step"),
    ("repro.service.replica", "ReplicaSession", "replicate",
     "service.replica.replicate"),
)


#: Spans whose function returns a generator: the wrapper drains it
#: inside the span, so the span covers the work and not its creation.
_LAZY = frozenset({"query.run"})


def _warm_hit(session):
    cached = session._warm_cache
    return cached is not None and cached[0] == session._applied_seq


class Tracer:
    """Span recorder plus the few counts that only a wrapper can see."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    # -- recording -----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn):
        tracer = self
        before, after = _OBSERVERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            state = None
            if before is not None:
                label, state = before(tracer, args)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name in _LAZY:
                    result = iter(list(result))
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, label, start, end))
            if after is not None:
                after(tracer, args, result, state)
            return result

        return wrapper

    # -- patching ------------------------------------------------------
    def install(self):
        if self._saved:
            return
        for module_name, class_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                patched = staticmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            setattr(owner, attr, patched)
            self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- output --------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def _prebuild_before(tracer, args):
    return "semantics.match.index_build", args[0].builds


def _prebuild_after(tracer, args, result, builds):
    tracer.count("index_builds", args[0].builds - builds)


def _wal_before(tracer, args):
    return "store.wal.append", args[0].size_bytes()


def _wal_after(tracer, args, result, size):
    tracer.count("wal_appends")
    tracer.count("wal_bytes", args[0].size_bytes() - size)


def _warm_before(tracer, args):
    hit = _warm_hit(args[0])
    tracer.count("warm_hits" if hit else "warm_misses")
    return ("service.session.warm_hit" if hit
            else "service.session.warm_rebuild"), None


def _step_after(tracer, args, result, state):
    tracer.count("polls")
    tracer.count("records", result)


#: span name -> (before, after) hooks.  ``before(tracer, args)`` returns
#: the span's label and a state that ``after(tracer, args, result,
#: state)`` receives; either may be None.
_OBSERVERS = {
    "semantics.match.index_build": (_prebuild_before, _prebuild_after),
    "store.wal.append": (_wal_before, _wal_after),
    "service.session.warm_state": (_warm_before, None),
    "service.replica.step": (None, _step_after),
}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def self_times(spans):
    """``{span id: (name, start, duration, self time)}`` in seconds."""
    children = {}
    for span_id, parent, name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, parent, name, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (name, start, end - start, end - start - covered)
    return out


def summarize(spans, since=None):
    """Per span name: calls, total and self seconds (``since`` filters)."""
    table = {}
    for name, start, duration, own in self_times(spans).values():
        if since is not None and start < since:
            continue
        entry = table.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
    return table


# ----------------------------------------------------------------------
# The per-layer metrics
# ----------------------------------------------------------------------

# name, unit, better, the span whose mean self time per call is the
# value (None: computed below), definition, and the end-to-end metric it
# should move with the workloads where it works or stays near zero.
LAYERS = (
    ("engine.planner.plan_ms", "ms", "lower",
     "engine.planner.plan",
     "self time per plan_program call (index build excluded)",
     "op_p50_ms on batch_transform; ~0 in the timed region of "
     "serve_mixed"),
    ("semantics.match.index_build_ms", "ms", "lower",
     "semantics.match.index_build",
     "self time per IndexPool.prebuild call",
     "op_p50_ms on batch_transform; small on serve_mixed (lookup indexes"
     " rebuilt after each ingest) and follower_catchup"),
    ("semantics.match.index_builds", "count/op", "lower",
     None,
     "indexes built by IndexPool.prebuild per unit operation",
     "op_p50_ms on batch_transform; ~0.1 per request on serve_mixed"),
    ("engine.executor.run_program_ms", "ms", "lower",
     "engine.executor.run_program",
     "self time per Executor.run_program call",
     "op_p50_ms on batch_transform; 0 elsewhere"),
    ("engine.executor.freeze_self_ms", "ms", "lower",
     "engine.executor.freeze",
     "Executor.freeze self time per call (validate excluded)",
     "op_p50_ms on batch_transform; 0 elsewhere (warm sessions assemble "
     "through the incremental engine)"),
    ("model.instance.validate_ms", "ms", "lower",
     "model.instance.validate",
     "self time per Instance.validate call",
     "op_p50_ms on batch_transform and follower_catchup (bootstrap)"),
    ("morphase.transform.unattributed_ms", "ms", "lower",
     "morphase.transform",
     "Morphase.transform self time: the part no traced layer covers",
     "op_p50_ms on batch_transform; 0 elsewhere"),
    ("gc.pause_ms", "ms/op", "lower",
     None,
     "collector pause per unit operation in the measured process",
     "op_p50_ms on batch_transform and follower_catchup, ops_per_s on "
     "serve_mixed"),
    ("gc.gen2_collections", "count/op", "lower",
     None,
     "gen-2 collections per unit operation in the measured process",
     "op_p50_ms on batch_transform and follower_catchup, ops_per_s on "
     "serve_mixed"),
    ("service.server.ingest_overhead_ms", "ms", "lower",
     None,
     "client POST /ingest latency minus server-side ingest_json, means",
     "ops_per_s on serve_mixed; 0 on batch_transform"),
    ("store.store.decode_delta_ms", "ms", "lower",
     "store.store.decode_delta",
     "self time per WarehouseStore.decode_delta call",
     "ops_per_s on serve_mixed and follower_catchup; 0 on "
     "batch_transform"),
    ("store.store.append_ms", "ms", "lower",
     "store.store.append",
     "WarehouseStore.append self time per call (WAL write excluded)",
     "ops_per_s on serve_mixed and follower_catchup; 0 on "
     "batch_transform"),
    ("store.wal.append_ms", "ms", "lower",
     "store.wal.append",
     "self time per WriteAheadLog.append call",
     "ops_per_s on serve_mixed and follower_catchup; 0 on "
     "batch_transform"),
    ("store.wal.bytes_per_append", "B", "lower",
     None,
     "WAL bytes written per WriteAheadLog.append",
     "storage amplification; serve_mixed and follower_catchup"),
    ("store.wal.bytes_per_ingest_byte", "ratio", "lower",
     None,
     "WAL bytes appended per POST /ingest body byte",
     "storage amplification; serve_mixed only"),
    ("engine.incremental.transform_apply_ms", "ms", "lower",
     "engine.incremental.transform_apply",
     "self time per IncrementalTransform.apply_delta call",
     "ops_per_s on serve_mixed, op_p50_ms on follower_catchup"),
    ("engine.incremental.audit_apply_ms", "ms", "lower",
     "engine.incremental.audit_apply",
     "self time per IncrementalAudit.apply_delta call",
     "ops_per_s on serve_mixed, op_p50_ms on follower_catchup"),
    ("service.session.warm_cache_hit_ratio", "ratio", "higher",
     None,
     "reads served from the warm IndexPool/encoder cache, per read",
     "ops_per_s on serve_mixed; 0 elsewhere"),
    ("service.session.warm_rebuild_ms", "ms", "lower",
     "service.session.warm_rebuild",
     "self time per warm-cache miss (IndexPool + dump_oid_encoder)",
     "ops_per_s on serve_mixed; 0 elsewhere"),
    ("query.parse_ms", "ms", "lower",
     "query.parse",
     "self time per Query.parse call",
     "op_p50_ms on serve_mixed; 0 elsewhere"),
    ("query.run_ms", "ms", "lower",
     "query.run",
     "self time per Query.run_planned call",
     "op_p50_ms on serve_mixed; 0 elsewhere"),
    ("service.server.query_overhead_ms", "ms", "lower",
     None,
     "client GET /query latency minus server-side query_body_json, means",
     "op_p50_ms on serve_mixed; 0 elsewhere"),
    ("program.compile_ms", "ms", "lower",
     "program.compile",
     "self time per compile_program call",
     "ops_per_s on serve_mixed; 0 elsewhere"),
    ("program.run_ms", "ms", "lower",
     "program.run",
     "self time per run_compiled call",
     "ops_per_s on serve_mixed; 0 elsewhere"),
    ("service.session.warm_build_ms", "ms", "lower",
     None,
     "WarehouseSession construction time, set-up included",
     "setup_s on serve_mixed, op_p50_ms on follower_catchup"),
    ("service.replica.seed_ms", "ms", "lower",
     "service.replica.bootstrap",
     "WalReplica.bootstrap self time (warm build and snapshot load "
     "excluded)",
     "op_p50_ms on follower_catchup; 0 elsewhere"),
    ("store.snapshot.load_ms", "ms", "lower",
     "store.snapshot.load",
     "self time per load_snapshot call",
     "op_p50_ms on follower_catchup; 0 elsewhere"),
    ("service.replica.replicate_ms", "ms", "lower",
     "service.replica.replicate",
     "self time per ReplicaSession.replicate call",
     "op_p50_ms on follower_catchup; 0 elsewhere"),
    ("service.replica.polls", "count/op", "lower",
     None,
     "WalReplica.step polls per unit operation",
     "op_p50_ms on follower_catchup; 0 elsewhere"),
    ("service.replica.records_per_poll", "count", "higher",
     None,
     "WAL records applied per poll",
     "op_p50_ms on follower_catchup; 0 elsewhere"),
    ("evolution.delta.compose_ms", "ms", "lower",
     "evolution.delta.compose",
     "self time per compose_deltas call",
     "op_p50_ms on follower_catchup; ~0 on serve_mixed (one delta/batch)"),
    ("store.store.export_records_ms", "ms", "lower",
     "store.store.export_records",
     "self time per WarehouseStore.export_records call (leader process)",
     "op_p50_ms on follower_catchup; 0 elsewhere"),
    ("trace.overhead_pct", "%", "lower",
     None,
     "traced minus untraced op_p50_ms, over untraced, same run",
     "none: the cost of this tracing"),
)

def mean_ms(table, span, kind="self"):
    entry = table.get(span)
    if not entry or not entry[0]:
        return 0.0
    return (entry[2] if kind == "self" else entry[1]) / entry[0] * 1000.0


def layer_metrics(traces, ops, extra, scale=1.0):
    """All :data:`LAYERS` metrics, merged over the traced processes.

    ``traces`` is a list of ``(summary table, counts, gc)`` per process;
    ``ops`` the unit operations run while tracing was on; ``extra``
    the metrics only the workload can compute (client-minus-server
    overheads, bytes per ingest byte, tracing overhead).  Times are
    multiplied by ``scale``, the run's reference-speed factor.
    """
    table = {}
    counts = {}
    pause_s = 0.0
    gen2 = 0
    for summary, process_counts, gc_stats in traces:
        for name, (calls, total, own) in summary.items():
            entry = table.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in process_counts.items():
            counts[name] = counts.get(name, 0) + value
        if gc_stats is not None:
            pause_s += gc_stats["pause_s"]
            gen2 += gc_stats["gen2"]
    ops = max(ops, 1)
    reads = counts.get("warm_hits", 0) + counts.get("warm_misses", 0)
    appends = counts.get("wal_appends", 0)
    polls = counts.get("polls", 0)
    values = {row[0]: mean_ms(table, row[3]) for row in LAYERS if row[3]}
    values.update({
        "semantics.match.index_builds": counts.get("index_builds", 0) / ops,
        "gc.pause_ms": pause_s * 1000.0 / ops,
        "gc.gen2_collections": gen2 / ops,
        "store.wal.bytes_per_append": (counts.get("wal_bytes", 0) / appends
                                       if appends else 0.0),
        "service.session.warm_cache_hit_ratio": (
            counts.get("warm_hits", 0) / reads if reads else 0.0),
        "service.replica.polls": polls / ops,
        "service.replica.records_per_poll": (
            counts.get("records", 0) / polls if polls else 0.0),
    })
    values.update(extra)
    return {name: {"value": float(values.get(name, 0.0))
                   * (scale if unit in ("ms", "ms/op") else 1.0),
                   "unit": unit}
            for name, unit, *_rest in LAYERS}
