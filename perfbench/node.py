"""A warehouse node in its own process: the server of ``serve_mixed`` or
the replication leader of ``follower_catchup``.

Run by the benchmark, never by hand::

    python3 perfbench/node.py --role serve|leader --seed N --dir DIR

The node builds its inputs from the seed, then talks JSON lines over
stdin/stdout.  Protocol, one request line and one reply line each:
``setup`` (set up ``SETUPS`` times, serve the last one; replies with the
URL and set-up times), ``trace`` with ``"on"`` (install or remove the
span wrappers and GC callbacks), ``calibrate`` (time the calibration
job in this process), ``mark`` (start the measured window),
``stats`` (peak RSS, GC, WAL bytes; the span file of a traced run) and
``stop``.  End of input also stops the node.
"""

import gc
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracing  # noqa: E402


def send(document):
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


class Node:
    def __init__(self, role, seed, directory):
        self.role = role
        self.seed = seed
        self.directory = directory
        scale = common.FULL_SCALE if role == "serve" else common.LEADER_SCALE
        self.source = common.source_instance(seed, scale)
        self.backlog = []
        if role == "leader":
            stream = common.DeltaStream(seed, updates_every=3)
            self.backlog = [stream.next()
                            for _ in range(common.BACKLOG_RECORDS)]
        self.tracer = tracing.Tracer()
        self.gc = common.GcMonitor()
        self.server = None
        self.session = None
        self.thread = None
        self.traced = False
        self.mark_time = None
        self.wal_mark = 0

    def _set_up_once(self, index):
        from repro.service import make_server
        path = os.path.join(self.directory, f"store{index}")
        morphase = common.build_morphase()
        store = morphase.open_store(path, sources=self.source)
        session = morphase.serve(store)
        for delta in self.backlog:
            session.ingest(delta)
        return path, session, make_server(session)

    def setup(self, trace):
        self.traced = trace
        if trace:
            self.tracer.install()
        times = []
        speed = common.Speed()
        for index in range(common.SETUPS):
            gc.collect()
            start = time.perf_counter()
            path, session, server = self._set_up_once(index)
            times.append((time.perf_counter() - start) * speed.factor())
            if index < common.SETUPS - 1:
                server.server_close()
                session.close()
                shutil.rmtree(path)
                del session, server
        self.tracer.uninstall()
        self.session, self.server = session, server
        reply = {"url": server.url, "setup_s": times,
                 "seq": session.store.seq, "objects": self.source.size()}
        if self.role == "leader":
            reply["target_digest"] = common.target_digest(session.target)
        gc.collect()
        self.thread = threading.Thread(target=server.serve_forever,
                                       daemon=True)
        self.thread.start()
        return reply

    def trace(self, on):
        if on:
            self.tracer.install()
            self.gc.install()
        else:
            self.tracer.uninstall()
            self.gc.uninstall()
        return {}

    def mark(self):
        self.mark_time = time.perf_counter()
        self.wal_mark = self.session.store.wal.size_bytes()
        self.gc.reset()
        self.tracer.counts = {}
        return {}

    def stats(self):
        reply = {
            "peak_rss_mb": common.peak_rss_mb(),
            "wal_bytes": self.session.store.wal.size_bytes() - self.wal_mark,
            "gc": self.gc.stats(),
            "since": self.mark_time,
        }
        if self.traced:
            reply["spans_file"] = os.path.join(
                self.directory, f"{self.role}-spans.json")
            self.tracer.dump(reply["spans_file"])
        return reply

    def stop(self):
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.session.close()
            self.server = None
        return {}


class NodeHandle:
    """The benchmark's side of a node process."""

    def __init__(self, role, seed, directory):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--role", role,
             "--seed", str(seed), "--dir", directory],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=common.ROOT)
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def receive(self, timeout=120):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise common.BenchError(
                f"node did not answer within {timeout}s") from None
        if line is None:
            raise common.BenchError(
                f"node exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise common.BenchError(f"node: {reply['error']}")
        return reply

    def request(self, command, timeout=120, **fields):
        self.proc.stdin.write(json.dumps({"cmd": command, **fields}) + "\n")
        self.proc.stdin.flush()
        return self.receive(timeout)

    def close(self):
        """Stop the node and wait for it; kill it if it hangs."""
        if self.proc.poll() is None:
            try:
                self.request("stop", timeout=60)
            except (common.BenchError, OSError, ValueError):
                pass
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)


def main(argv):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("serve", "leader"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    common.import_program()
    node = Node(args.role, args.seed, args.dir)
    send({"loaded": True})
    try:
        for line in sys.stdin:
            request = json.loads(line)
            command = request["cmd"]
            if command == "setup":
                send(node.setup(request.get("trace", False)))
            elif command == "trace":
                send(node.trace(request["on"]))
            elif command == "calibrate":
                send({"ms": common.calibrate()})
            elif command == "mark":
                send(node.mark())
            elif command == "stats":
                send(node.stats())
            elif command == "stop":
                send(node.stop())
                break
            else:
                send({"error": f"unknown command {command!r}"})
    finally:
        node.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
