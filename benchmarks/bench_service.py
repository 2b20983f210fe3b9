"""S1: warm incremental serving vs cold per-request batch runs.

The service layer's reason to exist: a long-lived session keeps the
compiled plan, the shared index pool and the incremental
transform/audit state warm across requests, so serving a delta is a
seeded join patch instead of a full recompute.  This benchmark pins
that claim end to end — *through the HTTP front end*, on a real
``ThreadingHTTPServer`` over localhost:

* ``warm_vs_cold``: p50 latency of a POST /ingest request (small
  source delta, genome default size) vs a cold per-request batch run
  (full ``Morphase.transform`` of the same updated source, compiled
  program already cached).  Floor: warm must be >= 10x faster.
* ``ingest_throughput``: sustained deltas/second through four
  concurrent client connections (exercises WAL append serialisation
  and group-commit batching).  Floored conservatively for CI boxes.
* ``recovery_vs_wal``: store-open wall time as the WAL tail grows,
  and again after a snapshot subsumes it — the compaction story in
  one series.
"""

import json
import statistics
import tempfile
import threading
import time
from http.client import HTTPConnection

from conftest import print_table

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.evolution.delta import Delta, delta_to_json
from repro.model.values import Oid, Record, WolSet
from repro.morphase import Morphase
from repro.service import make_server
from repro.store import WarehouseStore
from repro.workloads import genome

#: Genome workload default size (matches bench_planner/bench_incremental).
GENOME_SIZE = {"genes": 150, "sequences": 300, "clones": 300,
               "sparsity": 0.9, "seed": 7}
#: Acceptance floor: warm HTTP ingest vs cold per-request batch run.
SPEEDUP_FLOOR = 10.0
#: Sustained HTTP ingestion floor (deltas/second, conservative for CI).
THROUGHPUT_FLOOR = 25.0

WARM_REQUESTS = 40
COLD_REQUESTS = 5


def make_morphase():
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    m = Morphase([source_schema], genome.warehouse_schema(),
                 genome.PROGRAM_TEXT)
    m.compile()
    return m


def small_delta(tag):
    """A 2-object warehouse refresh: one gene plus one sequence."""
    gene = Oid.keyed("Gene", f"G-{tag}")
    seq = Oid.keyed("Sequence", f"S-{tag}")
    return Delta(inserts={
        "Gene": {gene: Record.of(
            name=f"G-{tag}", symbol=WolSet.of(f"sym{tag}"),
            description=WolSet.of(f"bench {tag}"))},
        "Sequence": {seq: Record.of(
            name=f"S-{tag}", dna_length=WolSet.of(50_000 + len(str(tag))),
            method=WolSet.of("shotgun"), gene=WolSet.of(gene))},
    })


class ServiceFixture:
    """One live server over a fresh genome store."""

    def __init__(self, morphase):
        self.morphase = morphase
        merged = morphase._merge_sources(genome.source_instance(
            genome.generate_acedb(**GENOME_SIZE)))
        self.store = morphase.open_store(tempfile.mkdtemp(), merged)
        self.session = morphase.serve(self.store)
        self.server = make_server(self.session)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.address = self.server.server_address[:2]

    def connection(self):
        return HTTPConnection(*self.address)

    def post_ingest(self, conn, delta):
        body = json.dumps(delta_to_json(delta))
        conn.request("POST", "/ingest", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        assert response.status == 200, payload
        return json.loads(payload)

    def shutdown(self):
        self.server.shutdown()
        self.server.server_close()
        self.session.close()


def percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       max(0, int(len(ordered) * fraction) - 1))]


def test_warm_vs_cold_per_request(bench_report):
    morphase = make_morphase()
    service = ServiceFixture(morphase)
    try:
        conn = service.connection()
        source = service.store.instance
        warm = []
        for tag in range(WARM_REQUESTS):
            delta = small_delta(tag)
            start = time.perf_counter()
            service.post_ingest(conn, delta)
            warm.append((time.perf_counter() - start) * 1000)

        query = []
        for _ in range(20):
            start = time.perf_counter()
            conn.request("GET", "/query?body=X%20in%20SeqGene")
            response = conn.getresponse()
            response.read()
            query.append((time.perf_counter() - start) * 1000)
        conn.close()

        # cold oracle: a stateless server would re-run the batch
        # transform for every ingested delta (program already compiled)
        cold = []
        for tag in range(COLD_REQUESTS):
            source = small_delta(1000 + tag).apply_to(source)
            start = time.perf_counter()
            morphase.transform(source)
            cold.append((time.perf_counter() - start) * 1000)
    finally:
        service.shutdown()

    warm_p50 = statistics.median(warm)
    warm_p99 = percentile(warm, 0.99)
    cold_p50 = statistics.median(cold)
    speedup = cold_p50 / warm_p50
    print_table(
        "S1: per-request latency, warm HTTP service vs cold batch",
        ("mode", "p50 ms", "p99 ms"),
        [("warm POST /ingest", f"{warm_p50:.2f}", f"{warm_p99:.2f}"),
         ("warm GET /query", f"{statistics.median(query):.2f}",
          f"{percentile(query, 0.99):.2f}"),
         ("cold batch transform", f"{cold_p50:.2f}",
          f"{percentile(cold, 0.99):.2f}"),
         ("speedup (ingest)", f"{speedup:.1f}x", "")])
    bench_report.record(
        "warm_vs_cold_genome_default",
        speedup=round(speedup, 2), floor=SPEEDUP_FLOOR,
        warm_p50_ms=round(warm_p50, 3), warm_p99_ms=round(warm_p99, 3),
        cold_p50_ms=round(cold_p50, 3),
        query_p50_ms=round(statistics.median(query), 3),
        query_p99_ms=round(percentile(query, 0.99), 3),
        requests=WARM_REQUESTS)
    assert speedup >= SPEEDUP_FLOOR


def test_sustained_ingest_throughput(bench_report):
    service = ServiceFixture(make_morphase())
    threads = 4
    per_thread = 40
    errors = []
    try:
        def worker(worker_id):
            conn = service.connection()
            try:
                for i in range(per_thread):
                    service.post_ingest(
                        conn, small_delta(f"{worker_id}.{i}"))
            except Exception as exc:  # pragma: no cover - fails below
                errors.append(exc)
            finally:
                conn.close()

        start = time.perf_counter()
        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = service.session.stats_json()
    finally:
        service.shutdown()
    assert not errors, errors[0]
    total = threads * per_thread
    per_sec = total / elapsed
    print_table(
        "S1: sustained ingestion (4 concurrent connections)",
        ("metric", "value"),
        [("deltas ingested", total),
         ("wall seconds", f"{elapsed:.2f}"),
         ("deltas/sec", f"{per_sec:.0f}"),
         ("group-commit batches", stats["batches"]),
         ("largest batch", stats["max_batch"])])
    bench_report.record(
        "ingest_throughput_http",
        metric="per_sec", per_sec=round(per_sec, 1),
        floor=THROUGHPUT_FLOOR, deltas=total,
        batches=stats["batches"], max_batch=stats["max_batch"])
    assert per_sec >= THROUGHPUT_FLOOR
    assert stats["applied_seq"] == stats["seq"] == total


def test_recovery_time_vs_wal_length(bench_report):
    morphase = make_morphase()
    merged = morphase._merge_sources(genome.source_instance(
        genome.generate_acedb(**GENOME_SIZE)))
    rows = []
    for wal_length in (0, 32, 128):
        path = tempfile.mkdtemp()
        store = morphase.open_store(path, merged)
        for tag in range(wal_length):
            store.append(small_delta(f"r{wal_length}.{tag}"))
        store.close()
        start = time.perf_counter()
        reopened = WarehouseStore.open(path)
        open_ms = (time.perf_counter() - start) * 1000
        assert reopened.seq == wal_length
        reopened.snapshot()
        reopened.close()
        start = time.perf_counter()
        compacted = WarehouseStore.open(path)
        compact_ms = (time.perf_counter() - start) * 1000
        assert compacted.seq == wal_length and not compacted.tail
        compacted.close()
        rows.append((wal_length, open_ms, compact_ms))
        bench_report.record(
            f"recovery_wal_{wal_length}",
            wal_records=wal_length, open_ms=round(open_ms, 3),
            open_after_snapshot_ms=round(compact_ms, 3))
    print_table(
        "S1: recovery time vs WAL length (genome default size)",
        ("WAL records", "open ms", "after compaction ms"),
        [(length, f"{open_ms:.1f}", f"{compact_ms:.1f}")
         for length, open_ms, compact_ms in rows])
