"""``follower_catchup``: seed a fresh follower and drain a WAL backlog.

A leader in its own process holds a quarter-scale genome store plus a
backlog of ``BACKLOG_RECORDS`` WAL records, more than one ``/wal`` page
at ``WalReplica``'s default ``poll_limit``.  Each iteration seeds a new
follower in this process (``WalReplica.bootstrap``) and drains the
backlog with ``catch_up()``, whose polls use ``wait=0`` so no long-poll
timer runs.  The follower applies hundreds of composed deltas per poll
through the same incremental layer ``serve_mixed`` uses one delta at a
time, and it stresses snapshot transfer and decode, ``/wal`` export and
delta decode.
"""

import gc
import json
import os
import shutil
import tempfile
import time

import common
import tracing
from node import NodeHandle


def run(seed, seconds, trace, rundir):
    from repro.service.replica import WalReplica
    node = NodeHandle("leader", seed, rundir)
    tracer = tracing.Tracer()
    monitor = common.GcMonitor()
    try:
        morphase = common.build_morphase()
        node.receive(timeout=120)
        ready = node.request("setup", timeout=120, trace=bool(trace))
        failed = 0

        def iteration(traced, speed):
            """Seed a follower and drain the backlog.

            Returns (outputs ok, bootstrap, catch-up, records), each
            time as (raw ms, reference-speed ms): the calibration jobs
            on either side of it give the scale.
            """
            directory = tempfile.mkdtemp(dir=rundir)
            replica = WalReplica(morphase, ready["url"], directory)
            try:
                if traced:
                    node.request("trace", on=True)
                    tracer.install()
                    monitor.install()
                start = time.perf_counter()
                replica.bootstrap()
                boot_ms = (time.perf_counter() - start) * 1000.0
                boot = (boot_ms, boot_ms * speed.factor())
                start = time.perf_counter()
                replica.catch_up()
                catch_ms = (time.perf_counter() - start) * 1000.0
                catch = (catch_ms, catch_ms * speed.factor())
                if traced:
                    tracer.uninstall()
                    monitor.uninstall()
                    node.request("trace", on=False)
                session = replica.session
                ok = (session.store.seq == ready["seq"]
                      and common.target_digest(session.target)
                      == ready["target_digest"])
                records = session.replication.records_replicated
            finally:
                replica.close()
                shutil.rmtree(directory)
            return ok, boot, catch, records

        # untimed warm-up
        ok, _boot, _catch, _records = iteration(False, common.Speed())
        failed += 0 if ok else 1
        node.request("mark")
        mark = time.perf_counter()
        # (bootstrap ms, catch-up ms, records) at the reference speed,
        # untraced and traced
        rows = {False: [], True: []}
        raw_ops = []
        spent = 0.0
        count = 0
        speed = common.Speed()
        while spent < seconds or (trace and count < 2):
            traced = trace and count % 2 == 1
            gc.collect()
            ok, boot, catch, records = iteration(traced, speed)
            failed += 0 if ok else 1
            rows[traced].append((boot[1], catch[1], records))
            if not traced:
                raw_ops.append(boot[0] + catch[0])
            spent += (boot[0] + catch[0]) / 1000.0
            count += 1
        stats = node.request("stats")
    finally:
        tracer.uninstall()
        monitor.uninstall()
        node.close()

    plain = rows[False]
    ops = [boot + catch for boot, catch, _ in plain]
    report = {
        "bootstrap_p50_ms": (common.median([r[0] for r in plain]), "ms",
                             len(plain)),
        "catchup_records_per_s": (
            common.median([r[2] * 1000.0 / r[1] for r in plain]), "1/s",
            len(plain)),
    }
    out = {"correct": failed == 0, "attempted": count + 1,
           "failed": failed, "report": report,
           "notes": [speed.note(raw_ops)],
           "sizes": {"leader_source_objects": ready["objects"],
                     "backlog_records": ready["seq"]}}
    if not trace:
        out["metrics"] = {
            "setup_s": common.median(ready["setup_s"]),
            "peak_rss_mb": common.peak_rss_mb(),
            "op_p50_ms": common.median(ops),
            "ops_per_s": len(ops) / (sum(ops) / 1000.0),
        }
        return out

    traced_ops = [boot + catch for boot, catch, _ in rows[True]]
    with open(stats["spans_file"], encoding="utf-8") as handle:
        leader = json.load(handle)
    leader_table = tracing.summarize(
        [tuple(span) for span in leader["spans"]], since=stats["since"])
    table = tracing.summarize(tracer.spans, since=mark)
    tracer.dump(os.path.join(rundir, "follower-spans.json"))
    extra = {
        "service.session.warm_build_ms": tracing.mean_ms(
            table, "service.session.warm_build", "total"),
        "trace.overhead_pct": (common.median(traced_ops)
                               / common.median(ops) - 1) * 100,
    }
    out["metrics"] = tracing.layer_metrics(
        [(table, tracer.counts, monitor.stats()),
         (leader_table, leader["counts"], None)],
        len(traced_ops), extra,
        scale=common.CAL_REF_MS / common.median(speed.samples))
    return out
