"""``batch_transform``: back-to-back ``Morphase.transform(validate=True)``.

Plan, index build, execute, freeze and validate do all the work here;
no store, HTTP or incremental code runs.  Steadiness controls: the
source is built once, ``gc.collect()`` runs between iterations outside
the timed region (the collector stays enabled inside it, so its cost
still counts), one untimed warm-up transform runs first, and each
result is dropped before the next iteration.
"""

import gc
import json
import os
import time

import common
import tracing

#: Set-ups per run (Morphase build + compile + preflight is cheap).
SETUPS = 5
PINNED = os.path.join(common.BENCH_DIR, "expected.json")


def pinned_digest(seed):
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)["batch_transform"]
    return pinned["target_sha256"] if pinned["seed"] == seed else None


def run(seed, seconds, trace, rundir):
    source = common.source_instance(seed, common.FULL_SCALE)
    speed = common.Speed()
    setups = []
    for _ in range(SETUPS):
        gc.collect()
        start = time.perf_counter()
        morphase = common.build_morphase()
        setups.append((time.perf_counter() - start) * speed.factor())

    # Untimed warm-up.  Its target is the reference every timed target
    # must equal: equal instances have equal canonical-JSON digests.
    reference = morphase.transform(source, validate=True).target
    digest = common.target_digest(reference)
    expected = pinned_digest(seed)
    failed = 0
    notes = [f"target digest {digest}"]
    if expected is not None and digest != expected:
        failed += 1
        notes.append(f"MISMATCH: pinned digest for seed {seed} is "
                     f"{expected}")

    tracer = tracing.Tracer()
    monitor = common.GcMonitor()
    # (reference-speed ms, raw ms) per transform, untraced and traced
    samples = {False: [], True: []}
    spent = 0.0
    iteration = 0
    mark = time.perf_counter()
    speed = common.Speed()
    while spent < seconds or (trace and iteration < 2):
        traced = trace and iteration % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            monitor.install()
        start = time.perf_counter()
        result = morphase.transform(source, validate=True)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            monitor.uninstall()
        if result.target != reference:
            failed += 1
        del result
        raw = elapsed * 1000.0
        samples[traced].append((raw * speed.factor(), raw))
        spent += elapsed
        iteration += 1

    plain = [scaled for scaled, _raw in samples[False]]
    notes.append(speed.note([raw for _scaled, raw in samples[False]]))
    out = {"correct": failed == 0, "attempted": iteration + 1,
           "failed": failed, "notes": notes,
           "report": {"transform_p50_ms": (common.median(plain), "ms",
                                           len(plain))},
           "sizes": {"source_objects": source.size(),
                     "target_objects": reference.size()}}
    if not trace:
        out["metrics"] = {
            "setup_s": common.median(setups),
            "peak_rss_mb": common.peak_rss_mb(),
            "op_p50_ms": common.median(plain),
            "ops_per_s": len(plain) / (sum(plain) / 1000.0),
        }
        return out

    traced = [scaled for scaled, _raw in samples[True]]
    table = tracing.summarize(tracer.spans, since=mark)
    tracer.dump(os.path.join(rundir, "batch-spans.json"))
    overhead = (common.median(traced) / common.median(plain) - 1) * 100
    out["metrics"] = tracing.layer_metrics(
        [(table, tracer.counts, monitor.stats())],
        len(traced), {"trace.overhead_pct": overhead},
        scale=common.CAL_REF_MS / common.median(speed.samples))
    out["notes"].extend(accounting(table, len(traced)))
    return out


def accounting(table, transforms):
    """Per-transform self times of the layers a transform runs through."""
    rows = ["per traced transform (self ms): " + ", ".join(
        f"{name}={table.get(name, [0, 0.0, 0.0])[2] * 1000 / transforms:.1f}"
        for name in ("engine.planner.plan", "semantics.match.index_build",
                     "engine.executor.run_program", "engine.executor.freeze",
                     "model.instance.validate", "morphase.transform"))]
    total = table.get("morphase.transform", [0, 0.0, 0.0])[1]
    parts = sum(entry[2] for entry in table.values())
    rows.append(f"traced transform {total * 1000 / transforms:.1f} ms; "
                f"layer self times sum to {parts * 1000 / transforms:.1f} "
                f"ms (morphase.transform self time is the unattributed "
                f"remainder)")
    return rows
