#!/usr/bin/env python3
"""Service walkthrough: a durable warehouse served over HTTP.

The paper's closing vision (Section 6) is Morphase *maintaining* a
transformed warehouse in front of evolving sources.  This demo builds
that system end to end:

1. initialise a durable store (snapshot + write-ahead delta log) from
   the paper's Cities/Countries running example,
2. start the HTTP service — one long-lived session holding the
   compiled program, shared indexes and incremental state warm,
3. POST a source delta and watch it group-commit into the warm target,
4. verify the served target equals a cold batch transform of the
   updated source (the differential guarantee),
5. scrape GET /metrics and assert the Prometheus families a
   dashboard would alert on are present with live samples,
6. kill the session, recover the store from disk, and verify the
   rebuilt warm session agrees byte for byte,
7. compact (snapshot) and show the WAL reset.

Run:  PYTHONPATH=src python examples/service_demo.py

Exits non-zero on any mismatch — CI runs this as the service smoke.
"""

import json
import sys
import tempfile
import threading

from repro.io.json_io import instance_to_json
from repro.morphase import Morphase
from repro.service import ServiceClient, make_server
from repro.workloads import cities

NEW_COUNTRY_DELTA = {
    "inserts": {
        "CountryE": [{
            "id": {"$oid": "CountryE", "label": "CountryE#utopia"},
            "value": {"$rec": {"name": "Utopia",
                               "language": "utopian",
                               "currency": "UTO"}}}],
        "CityE": [{
            "id": {"$oid": "CityE", "label": "CityE#nowhere"},
            "value": {"$rec": {
                "name": "Nowhere", "is_capital": True,
                "country": {"$oid": "CountryE",
                            "label": "CountryE#utopia"}}}}],
    }}


def dumps(instance) -> str:
    return json.dumps(instance_to_json(instance), sort_keys=True)


def metric_value(text: str, sample: str) -> float:
    """One sample's value out of a Prometheus text page (or -1)."""
    for line in text.splitlines():
        if line.startswith(sample + " "):
            return float(line.rsplit(" ", 1)[1])
    return -1.0


def check_metrics(client: ServiceClient, role: str,
                  samples: dict) -> bool:
    """Assert each sample appears on this node with a live value."""
    text = client.metrics()
    ok = True
    for sample, minimum in samples.items():
        value = metric_value(text, sample)
        if value < minimum:
            print(f"MISSING METRIC on {role}: {sample} = {value} "
                  f"(wanted >= {minimum})")
            ok = False
    if ok:
        shown = ", ".join(sorted(samples))
        print(f"  {role} /metrics exposes {shown}")
    return ok


def main() -> int:
    # 1. A durable store initialised from the merged sources.
    morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                        cities.target_schema(), cities.PROGRAM_TEXT)
    store_dir = tempfile.mkdtemp(prefix="morphase-store-")
    store = morphase.open_store(
        store_dir,
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    print(f"store initialised at {store_dir}")
    print(f"  snapshot: {store.snapshot_file}")

    # 2. The warm service: compiled plan + indexes + incremental state.
    session = morphase.serve(store)
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(server.url)
    print(f"serving on {server.url}")
    print(f"  health: {client.health()}")

    # 3. Ingest a delta: durable WAL append, then incremental apply.
    result = client.ingest(NEW_COUNTRY_DELTA)
    print(f"ingested delta -> seq {result['seq']}, "
          f"batch of {result['batch_size']}, "
          f"{result['violations']} violation(s)")

    countries = client.query("X in CountryT")
    print(f"  target CountryT now has {countries['count']} objects")

    # Conjunctive queries and whole programs run against the same warm
    # session (planned + columnar, shared index pool).
    euros = client.query("X in CountryT, N = X.name, C = X.currency",
                         project=["N", "C"])
    print(f"  /query?body= returned {euros['count']} "
          f"(country, currency) rows")
    outcome = client.program(text="""
        caps  = query { N | C in CountryT, X = C.capital, N = X.name };
        alln  = query { N | X in CityT, N = X.name };
        rest  = difference alln, caps;
    """)
    print(f"  /program: "
          + ", ".join(f"{t['name']}={t['rows']}"
                      for t in outcome['statements']))

    # 4. Differential guarantee: served target == cold batch transform.
    cold = morphase.transform(store.instance).target
    if json.dumps(client.target(), sort_keys=True) != dumps(cold):
        print("MISMATCH: served target != cold batch transform")
        return 1
    print("served target equals cold batch transform of final source")

    # 5. The observability surface: request latency histograms, WAL
    # append timings and session progress are live on /metrics.
    if not check_metrics(client, "leader", {
            'repro_http_requests_total{method="POST",'
            'endpoint="/ingest",status="200"}': 1,
            'repro_http_request_seconds_count{method="GET",'
            'endpoint="/query"}': 1,
            "repro_wal_appends_total": 1,
            "repro_wal_append_seconds_count": 1,
            'repro_session_role{role="leader"}': 1,
            "repro_session_ingested": 1,
    }):
        return 1

    # 6. Kill and recover: reopen the store, rebuild the warm session.
    server.shutdown()
    server.server_close()
    session.close()
    recovered = morphase.open_store(store_dir)
    print(f"recovered store: seq {recovered.seq}, "
          f"{len(recovered.tail)} WAL record(s) replayed")
    warm = morphase.serve(recovered)
    if dumps(warm.target) != dumps(cold):
        print("MISMATCH: recovered warm target != cold oracle")
        return 1
    print("recovered warm session agrees with the cold oracle")

    # 7. Compaction: snapshot subsumes the WAL.
    report = warm.snapshot()
    print(f"compacted: snapshot {report['snapshot']} at "
          f"base_seq {report['base_seq']}, WAL now "
          f"{recovered.wal.size_bytes()} bytes")
    warm.close()
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
