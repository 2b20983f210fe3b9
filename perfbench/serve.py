"""``serve_mixed``: a warm leader over a canonical-size genome store.

The server runs in its own process.  One closed-loop client connection
runs cycles of one ``POST /ingest`` (a Gene plus its Sequence), ten
``GET /query?body=`` point lookups of ingested sequences by name, and a
``POST /program`` (the 6-statement program) every fifth cycle.  This
drives the WAL, the incremental transform and audit, the warm read
cache (one miss per ten reads), the program interpreter and HTTP, with
reads beside writes.  Batch freeze runs only in set-up.
"""

import json
import random
import time
from http.client import HTTPConnection
from urllib.parse import quote, urlsplit

import common
import tracing
from node import NodeHandle

LOOKUPS_PER_CYCLE = 10
PROGRAM_EVERY = 5
WARMUP_CYCLES = 10
#: Cycles per phase when traced and untraced phases alternate.
TRACE_PHASE_CYCLES = 10


class Client:
    """One keep-alive HTTP connection; times each request."""

    def __init__(self, url):
        parts = urlsplit(url)
        self.conn = HTTPConnection(parts.hostname, parts.port, timeout=120)

    def call(self, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        elapsed = (time.perf_counter() - start) * 1000.0
        return response.status, payload, elapsed

    def close(self):
        self.conn.close()


def _result(status, payload):
    if status != 200:
        return None
    document = json.loads(payload)
    return document["result"] if document.get("ok") else None


class Mix:
    """The request mix and its output checks."""

    def __init__(self, seed, client):
        from repro.evolution.delta import delta_to_json
        self.encode = delta_to_json
        self.client = client
        self.stream = common.DeltaStream(seed)
        self.rng = random.Random(f"lookups-{seed}")
        self.program_body = json.dumps(
            {"text": common.PROGRAM_TEXT}).encode("utf-8")
        self.deltas = []
        self.cycles = 0
        self.requests = 0
        self.failed = 0
        self.ingest_bytes = 0
        #: (rows the program returned, sequences ingested at the time)
        self.program_counts = []

    def cycle(self, record):
        """One cycle; ``record(kind, ms)`` gets every request latency."""
        self.requests += 1 + LOOKUPS_PER_CYCLE
        delta = self.stream.next()
        self.deltas.append(delta)
        body = json.dumps(self.encode(delta)).encode("utf-8")
        status, payload, elapsed = self.client.call("POST", "/ingest", body)
        record("ingest", elapsed)
        self.ingest_bytes += len(body)
        if _result(status, payload) is None:
            self.failed += 1
        names = list(self.stream.sequences)
        for _ in range(LOOKUPS_PER_CYCLE):
            name = self.rng.choice(names)
            path = "/query?body=" + quote(
                f'S in SequenceT, S.name = "{name}", L = S.dna_length'
            ) + "&project=L"
            status, payload, elapsed = self.client.call("GET", path)
            record("query", elapsed)
            result = _result(status, payload)
            if (result is None or result["rows"]
                    != [{"L": self.stream.sequences[name]}]):
                self.failed += 1
        self.cycles += 1
        if self.cycles % PROGRAM_EVERY == 0:
            self.requests += 1
            status, payload, elapsed = self.client.call(
                "POST", "/program", self.program_body)
            record("program", elapsed)
            result = _result(status, payload)
            if result is None:
                self.failed += 1
            else:
                self.program_counts.append(
                    (len(result["rows"]), len(self.stream.sequences)))

    def check_final(self, morphase, source, target_document):
        """The served target must equal a cold batch transform of the
        source with every ingested delta applied; every program answer
        must have counted one more sequence per ingest."""
        from repro.evolution.delta import Delta
        from repro.io.json_io import instance_to_json
        inserts = {}
        for delta in self.deltas:
            for cname, objects in delta.inserts.items():
                inserts.setdefault(cname, {}).update(objects)
        updated = Delta(inserts=inserts).apply_to(source)
        cold = morphase.transform(updated, validate=True).target
        failures = 0
        if (common.canonical_text(instance_to_json(cold))
                != common.canonical_text(target_document)):
            failures += 1
        base = len(cold.objects_of("SequenceT")) - len(self.stream.sequences)
        failures += sum(1 for rows, ingested in self.program_counts
                        if rows != base + ingested)
        return failures


def run(seed, seconds, trace, rundir):
    node = NodeHandle("serve", seed, rundir)
    client = None
    try:
        # The node generates the same source; both finish before set-up.
        source = common.source_instance(seed, common.FULL_SCALE)
        morphase = common.build_morphase()
        node.receive(timeout=120)
        ready = node.request("setup", timeout=120, trace=bool(trace))
        client = Client(ready["url"])
        mix = Mix(seed, client)
        for _ in range(WARMUP_CYCLES):
            mix.cycle(lambda kind, ms: None)
        warm_failed = mix.failed
        node.request("mark")

        # kind -> [(reference-speed ms, raw ms)], untraced and traced
        samples = {traced: {"ingest": [], "query": [], "program": []}
                   for traced in (False, True)}
        spent = 0.0
        cycles = 0
        ingest_bytes = mix.ingest_bytes
        # The server does most of each request's work: scale by the
        # speed of both processes.
        speed = common.Speed()
        server_speed = common.Speed(
            lambda: node.request("calibrate")["ms"])
        while spent < seconds or (trace and cycles < 2 * TRACE_PHASE_CYCLES):
            traced = trace and (cycles // TRACE_PHASE_CYCLES) % 2 == 1
            if trace and cycles % TRACE_PHASE_CYCLES == 0:
                node.request("trace", on=traced)
            latencies = []
            mix.cycle(lambda kind, ms: latencies.append((kind, ms)))
            factor = (speed.factor() + server_speed.factor()) / 2.0
            for kind, ms in latencies:
                samples[traced][kind].append((ms * factor, ms))
                spent += ms / 1000.0
            cycles += 1
        if trace:
            node.request("trace", on=False)
        ingest_bytes = mix.ingest_bytes - ingest_bytes
        stats = node.request("stats")
        status, payload, _ms = client.call("GET", "/target")
        target_document = _result(status, payload)
    finally:
        if client is not None:
            client.close()
        node.close()

    failed = mix.failed
    if target_document is None:
        failed += 1
    else:
        failed += mix.check_final(morphase, source, target_document)
    plain = {kind: [scaled for scaled, _raw in values]
             for kind, values in samples[False].items()}
    requests = plain["ingest"] + plain["query"] + plain["program"]
    raw = [raw for values in samples[False].values() for _s, raw in values]
    attempted = mix.requests + 1  # every request plus the /target check
    report = {
        "ingest_p50_ms": _pct(plain["ingest"], 0.5),
        "ingest_p90_ms": _pct(plain["ingest"], 0.9),
        "query_p50_ms": _pct(plain["query"], 0.5),
        "query_p99_ms": _pct(plain["query"], 0.99),
        "program_p50_ms": _pct(plain["program"], 0.5),
        "wal_bytes_per_ingest_byte": (
            stats["wal_bytes"] / ingest_bytes, "ratio", cycles),
    }
    out = {"correct": failed == 0, "attempted": attempted,
           "failed": failed, "report": report,
           "notes": [f"warm-up failures {warm_failed}",
                     f"measured cycles {cycles} after {WARMUP_CYCLES} "
                     f"warm-up cycles", speed.note(raw),
                     "server " + server_speed.note()],
           "sizes": {"source_objects": ready["objects"],
                     "ingests": mix.cycles, "lookups_per_cycle":
                     LOOKUPS_PER_CYCLE, "program_every": PROGRAM_EVERY}}
    if not trace:
        out["metrics"] = {
            "setup_s": common.median(ready["setup_s"]),
            "peak_rss_mb": stats["peak_rss_mb"],
            "op_p50_ms": common.median(requests),
            "ops_per_s": len(requests) / (sum(requests) / 1000.0),
        }
        return out

    with open(stats["spans_file"], encoding="utf-8") as handle:
        dumped = json.load(handle)
    spans = [tuple(span) for span in dumped["spans"]]
    table = tracing.summarize(spans, since=stats["since"])
    everything = tracing.summarize(spans)
    traced = samples[True]
    traced_requests = [scaled for values in traced.values()
                       for scaled, _raw in values]

    def mean_raw(values):
        return sum(raw for _s, raw in values) / len(values) if values else 0.0

    extra = {
        "service.server.ingest_overhead_ms": mean_raw(traced["ingest"])
        - tracing.mean_ms(table, "service.session.ingest_json", "total"),
        "service.server.query_overhead_ms": mean_raw(traced["query"])
        - tracing.mean_ms(table, "service.session.query_body_json", "total"),
        "store.wal.bytes_per_ingest_byte": stats["wal_bytes"] / ingest_bytes,
        "service.session.warm_build_ms": tracing.mean_ms(
            everything, "service.session.warm_build", "total"),
        "trace.overhead_pct": (common.median(traced_requests)
                               / common.median(requests) - 1) * 100,
    }
    out["metrics"] = tracing.layer_metrics(
        [(table, dumped["counts"], stats["gc"])], len(traced_requests),
        extra, scale=common.CAL_REF_MS / common.median(server_speed.samples))
    return out


def _pct(samples, fraction):
    return (common.percentile(samples, fraction), "ms", len(samples))
