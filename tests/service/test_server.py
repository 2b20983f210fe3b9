"""HTTP front-end tests: the service smoke the CI job also runs.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven through
:class:`repro.service.client.ServiceClient` — request/response shapes,
error mapping, and the differential guarantee observed *through the
wire*: the served target always equals a cold batch transform of the
store's final instance.
"""

import itertools
import json
import threading
import time

import pytest

from repro.io.json_io import instance_to_json
from repro.morphase import Morphase
from repro.service import ServiceClient, ServiceClientError, make_server
from repro.workloads import cities

INSERT_DELTA = {"inserts": {
    "CountryE": [{"id": {"$oid": "CountryE", "label": "CountryE#new"},
                  "value": {"$rec": {"name": "Utopia", "language": "u",
                                     "currency": "UTO"}}}],
    "CityE": [{"id": {"$oid": "CityE", "label": "CityE#new"},
               "value": {"$rec": {"name": "Nowhere", "is_capital": True,
                                  "country": {"$oid": "CountryE",
                                              "label": "CountryE#new"}}}}],
}}

_fresh = itertools.count()


def next_insert_delta(tag):
    """A unique one-country insert (labels must not collide)."""
    n = next(_fresh)
    return {"inserts": {"CountryE": [
        {"id": {"$oid": "CountryE", "label": f"CountryE#{tag}{n}"},
         "value": {"$rec": {"name": f"Land-{tag}-{n}", "language": "x",
                            "currency": f"c{n}"}}}]}}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                        cities.target_schema(), cities.PROGRAM_TEXT)
    store = morphase.open_store(
        str(tmp_path_factory.mktemp("service") / "store"),
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    session = morphase.serve(store)
    server = make_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield morphase, session, ServiceClient(server.url)
    server.shutdown()
    server.server_close()
    session.close()


class TestEndpoints:
    def test_health(self, service):
        _, _, client = service
        document = client.health()
        assert "seq" in document

    def test_ingest_then_query_matches_cold_batch(self, service):
        morphase, session, client = service
        before = client.health()["seq"]
        result = client.ingest(INSERT_DELTA)
        assert result["seq"] == before + 1
        assert result["applied_seq"] >= result["seq"]
        served = client.target()
        cold = morphase.transform(session.store.instance).target
        assert json.dumps(served, sort_keys=True) \
            == json.dumps(instance_to_json(cold), sort_keys=True)

    def test_extent_single_class(self, service):
        _, session, client = service
        document = client.query("X in CountryT")
        assert document["columns"] == ["X"]
        assert document["count"] == len(document["rows"])
        assert document["count"] \
            == len(session.target.objects_of("CountryT"))

    def test_body_query_matches_batch_query(self, service):
        _, session, client = service
        document = client.query("X in CountryT, N = X.name",
                                project=["N"])
        assert document["columns"] == ["N"]
        from repro.query.query import Query
        target = session.target
        oracle = sorted({row["N"] for row in Query.parse(
            "N | X in CountryT, N = X.name",
            classes=target.schema.class_names()).run(target)})
        assert [row["N"] for row in document["rows"]] == oracle
        assert document["count"] == len(oracle)

    def test_every_endpoint_speaks_the_envelope(self, service):
        import urllib.request
        from repro.service.server import API_VERSION
        _, _, client = service
        for path in ("/health", "/stats", "/target",
                     "/query?body=X%20in%20CountryT", "/check"):
            with urllib.request.urlopen(client.base_url + path) as resp:
                document = json.loads(resp.read().decode("utf-8"))
            assert document["version"] == API_VERSION, path
            assert document["ok"] is True and "result" in document, path

    def test_check_reports_ok(self, service):
        _, _, client = service
        document = client.check()
        assert document["ok"] is True and document["violations"] == []

    def test_stats_counts_requests(self, service):
        _, _, client = service
        stats = client.stats()
        assert stats["seq"] == stats["applied_seq"]
        assert stats["store"]["path"]

    def test_snapshot_compacts(self, service):
        _, session, client = service
        document = client.snapshot()
        assert document["base_seq"] == session.store.seq
        assert session.store.wal.size_bytes() == 0


class TestErrorMapping:
    def test_unknown_route_404(self, service):
        _, _, client = service
        with pytest.raises(ServiceClientError) as info:
            client._call("GET", "/nothing")
        assert info.value.status == 404

    def test_unknown_class_is_validation_error_422(self, service):
        _, _, client = service
        with pytest.raises(ServiceClientError) as info:
            client.query("X in Nonsense")
        assert info.value.status == 422
        assert info.value.code == "validation_failed"

    def test_bad_body_400(self, service):
        _, _, client = service
        import urllib.request
        request = urllib.request.Request(
            client.base_url + "/ingest", data=b"not json",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400

    def test_undecodable_delta_400(self, service):
        _, _, client = service
        bad = {"updates": {"CountryE": [
            {"id": {"$oid": "CountryE", "label": "CountryE#ghost"},
             "value": {"$rec": {"name": "X", "language": "x",
                                "currency": "X"}}}]}}
        with pytest.raises(ServiceClientError) as info:
            client.ingest(bad)
        assert info.value.status == 400
        assert info.value.code == "bad_request"
        assert "cannot update" in info.value.message

    def test_missing_query_parameter_400(self, service):
        _, _, client = service
        with pytest.raises(ServiceClientError) as info:
            client._call("GET", "/query")
        assert info.value.status == 400

    def test_class_parameter_alone_400(self, service):
        _, _, client = service
        with pytest.raises(ServiceClientError) as info:
            client._call("GET", "/query?class=CountryT")
        assert info.value.status == 400 \
            and info.value.code == "bad_request"

    def test_unparsable_body_is_parse_error_400(self, service):
        from repro.service import ServiceParseError
        _, _, client = service
        with pytest.raises(ServiceParseError) as info:
            client.query("X in in in")
        assert info.value.status == 400

    def test_unsafe_body_is_validation_error_422(self, service):
        from repro.service import ServiceValidationError
        _, _, client = service
        with pytest.raises(ServiceValidationError) as info:
            client.query("N = X.name")
        assert info.value.status == 422


class TestConcurrency:
    def test_readers_and_writers_interleave(self, service):
        morphase, session, client = service
        errors = []

        def writer(tag):
            try:
                client.ingest({"inserts": {"CountryE": [
                    {"id": {"$oid": "CountryE",
                            "label": f"CountryE#load{tag}"},
                     "value": {"$rec": {"name": f"Load{tag}",
                                        "language": f"l{tag}",
                                        "currency": f"L{tag}"}}}]}})
            except Exception as exc:  # pragma: no cover - fails test
                errors.append(exc)

        def reader():
            try:
                for _ in range(5):
                    client.query("X in CountryT")
                    client.stats()
            except Exception as exc:  # pragma: no cover - fails test
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(t,))
                    for t in range(6)]
                   + [threading.Thread(target=reader)
                      for _ in range(4)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        served = client.target()
        cold = morphase.transform(session.store.instance).target
        assert json.dumps(served, sort_keys=True) \
            == json.dumps(instance_to_json(cold), sort_keys=True)


class TestHealthAndSpentMapping:
    def test_spent_session_reports_unhealthy(self, service):
        _, session, client = service
        assert "seq" in client.health()
        session._failure = "induced for test"
        try:
            with pytest.raises(ServiceClientError) as info:
                client.health()
            assert info.value.status == 503
            assert info.value.code == "session_spent"
            assert info.value.document["ok"] is False
            assert "induced" in info.value.details["spent"]
            with pytest.raises(ServiceClientError) as info:
                client.ingest(INSERT_DELTA)
            assert info.value.status == 503
        finally:
            session._failure = None
        assert "seq" in client.health()

    def test_oversized_body_closes_connection(self, service):
        """An undrained over-limit body must not desynchronise
        keep-alive: the server closes the connection after the 400."""
        import http.client

        from repro.service.server import MAX_BODY_BYTES
        _, _, client = service
        host, port = client.base_url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port))
        conn.putrequest("POST", "/ingest")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        response = conn.getresponse()
        body = response.read()
        assert response.status == 400 and b"over" in body
        assert response.will_close
        conn.close()


class TestLintEndpoint:
    BAD_PROGRAM = ("transformation K: X in CityT, X.state = V "
                   "<= S in StateA, V = S.nonexistent;")

    def test_lint_own_program_is_clean(self, service):
        _, _, client = service
        document = client.lint()
        assert document["ok"] is True
        assert document["diagnostics"] == []
        assert set(document["passes"]) == {
            "safety", "deadcode", "interference", "schema"}

    def test_lint_with_errors_is_still_200_report(self, service):
        _, _, client = service
        document = ServiceClient(client.base_url)._call(
            "POST", "/lint", body={"program": self.BAD_PROGRAM})
        assert document["ok"] is False
        assert any(d["code"] == "WOL102"
                   for d in document["diagnostics"])

    def test_client_surfaces_report_as_document(self, service):
        _, _, client = service
        document = client.lint(self.BAD_PROGRAM)
        assert document["ok"] is False and document["counts"]["error"] >= 1

    def test_lint_counter_in_stats(self, service):
        _, _, client = service
        before = client.stats()["lints"]
        client.lint()
        assert client.stats()["lints"] == before + 1

    def test_non_string_program_is_client_error(self, service):
        _, _, client = service
        with pytest.raises(ServiceClientError) as info:
            client._call("POST", "/lint", body={"program": 42})
        assert info.value.status == 400
        assert info.value.code == "bad_request"


class TestMalformedContentLength:
    def raw_post(self, client, length_header):
        import http.client
        host, port = client.base_url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port))
        try:
            conn.putrequest("POST", "/ingest")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length_header)
            conn.endheaders()
            response = conn.getresponse()
            return response, json.loads(response.read())
        finally:
            conn.close()

    def test_non_numeric_length_is_400_not_crash(self, service):
        """A malformed Content-Length used to escape as an unhandled
        ValueError (connection reset, stack trace on the server); it
        must be answered as a protocol parse error."""
        _, _, client = service
        response, document = self.raw_post(client, "banana")
        assert response.status == 400
        assert document["ok"] is False
        assert document["error"]["code"] == "parse_error"
        assert "banana" in document["error"]["message"]
        assert response.will_close  # the body cannot be framed

    def test_float_length_is_400(self, service):
        _, _, client = service
        response, document = self.raw_post(client, "12.5")
        assert response.status == 400
        assert document["error"]["code"] == "parse_error"

    def test_service_still_healthy_after(self, service):
        _, _, client = service
        self.raw_post(client, "not-a-length")
        assert "seq" in client.health()


class TestWildcardBindUrl:
    def test_wildcard_bind_yields_connectable_url(self):
        """``url`` used to echo the bind host — and nothing listens
        at ``http://0.0.0.0``: clients must be pointed at loopback."""
        from repro.service.server import ServiceServer
        server = ServiceServer.__new__(ServiceServer)
        server.server_address = ("0.0.0.0", 8973)
        assert server.url == "http://127.0.0.1:8973"
        server.server_address = ("", 8080)
        assert server.url == "http://127.0.0.1:8080"

    def test_ipv6_wildcard_and_literal_are_bracketed(self):
        from repro.service.server import ServiceServer
        server = ServiceServer.__new__(ServiceServer)
        server.server_address = ("::", 9000, 0, 0)
        assert server.url == "http://[::1]:9000"
        server.server_address = ("fe80::1", 9000, 0, 0)
        assert server.url == "http://[fe80::1]:9000"

    def test_explicit_host_passes_through(self):
        from repro.service.server import ServiceServer
        server = ServiceServer.__new__(ServiceServer)
        server.server_address = ("127.0.0.1", 8973)
        assert server.url == "http://127.0.0.1:8973"

    def test_real_wildcard_bind_is_reachable_via_url(self, service):
        morphase, session, _ = service
        from repro.service import make_server
        server = make_server(session, host="0.0.0.0", port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            assert "0.0.0.0" not in server.url
            assert "seq" in ServiceClient(server.url).health()
        finally:
            server.shutdown()
            server.server_close()


class TestMonotonicReadToken:
    def test_every_response_carries_the_seq_header(self, service):
        _, session, client = service
        import urllib.request
        with urllib.request.urlopen(client.base_url + "/health") as resp:
            value = resp.headers.get("X-Repro-Seq")
        assert value is not None
        assert int(value) == session.applied_seq

    def test_client_tracks_and_echoes_the_token(self, service):
        _, session, client = service
        client.health()
        assert client.last_seq == session.applied_seq

    def test_future_token_is_409_replica_behind(self, service):
        from repro.service import ServiceConflictError
        _, session, client = service
        impatient = ServiceClient(client.base_url, behind_wait=0.0)
        impatient.last_seq = session.applied_seq + 10
        with pytest.raises(ServiceConflictError) as info:
            impatient.health()
        assert info.value.status == 409
        assert info.value.code == "replica_behind"
        assert info.value.details["applied_seq"] == session.applied_seq
        assert info.value.details["requested_seq"] \
            == session.applied_seq + 10

    def test_malformed_token_is_400(self, service):
        import urllib.error
        import urllib.request
        _, _, client = service
        request = urllib.request.Request(
            client.base_url + "/health",
            headers={"X-Repro-Seq": "yesterday"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400

    def test_behind_retry_succeeds_once_caught_up(self, service):
        """The client's retry loop resolves a transient 409 by itself
        once the node's applied seq passes the token."""
        _, session, client = service
        waiter = ServiceClient(client.base_url, behind_wait=5.0)
        waiter.last_seq = session.applied_seq + 1
        done = {}

        def read():
            done["seq"] = waiter.health()["seq"]

        thread = threading.Thread(target=read)
        thread.start()
        time.sleep(0.2)
        client.ingest(next_insert_delta("monotonic"))
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert done["seq"] == session.applied_seq


class TestWalEndpoint:
    def test_feed_serves_appended_records(self, service):
        _, session, client = service
        first = session.store.seq + 1
        client.ingest(next_insert_delta("walfeed"))
        feed = client.wal(first)
        assert feed["reset"] is False
        assert feed["seq"] == session.store.seq
        assert feed["records"][-1]["seq"] == session.store.seq
        assert all(r["seq"] >= first for r in feed["records"])

    def test_from_is_required(self, service):
        _, _, client = service
        with pytest.raises(ServiceClientError) as info:
            client._call("GET", "/wal")
        assert info.value.status == 400
        assert "from" in info.value.message

    def test_non_numeric_params_are_400(self, service):
        _, _, client = service
        for path in ("/wal?from=abc", "/wal?from=1&limit=x",
                     "/wal?from=1&wait=soon"):
            with pytest.raises(ServiceClientError) as info:
                client._call("GET", path)
            assert info.value.status == 400

    def test_compacted_cursor_answers_reset(self, service):
        _, session, client = service
        client.ingest(next_insert_delta("compactme"))
        client.snapshot()
        feed = client.wal(1)
        assert feed["reset"] is True
        assert feed["records"] == []
        assert feed["snapshot"] == session.store.snapshot_file

    def test_long_poll_wakes_on_append(self, service):
        _, session, client = service
        from_seq = session.store.seq + 1

        def later():
            time.sleep(0.2)
            client.ingest(next_insert_delta("longpoll"))

        thread = threading.Thread(target=later)
        thread.start()
        started = time.monotonic()
        feed = ServiceClient(client.base_url).wal(from_seq, wait=10.0)
        elapsed = time.monotonic() - started
        thread.join()
        assert feed["records"] and feed["records"][0]["seq"] == from_seq
        assert elapsed < 8.0  # woke on the append, not the deadline

    def test_expired_wait_returns_empty(self, service):
        _, session, client = service
        feed = client.wal(session.store.seq + 1, wait=0.1)
        assert feed["records"] == [] and feed["reset"] is False


class TestSnapshotFileEndpoint:
    def test_serves_the_live_snapshot_verbatim(self, service):
        _, session, client = service
        name = session.store.snapshot_file
        document = client.snapshot_file(name)
        from repro.store.snapshot import snapshot_name
        canonical = json.dumps(document, sort_keys=True,
                               separators=(",", ":")).encode()
        assert snapshot_name(canonical) == name
        assert document["base_seq"] == session.store.base_seq

    def test_malformed_names_are_400(self, service):
        _, _, client = service
        for name in ("../CURRENT.json", "snap-upperCASE000000000000.json",
                     "wal.jsonl", "snap-abc.json"):
            with pytest.raises(ServiceClientError) as info:
                client._call("GET", "/snapshot/" + name)
            assert info.value.status == 400, name

    def test_unknown_snapshot_is_404(self, service):
        _, _, client = service
        with pytest.raises(ServiceClientError) as info:
            client.snapshot_file("snap-" + "0" * 24 + ".json")
        assert info.value.status == 404
