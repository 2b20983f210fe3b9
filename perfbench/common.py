"""Shared pieces of the benchmark: inputs, calibration, statistics, GC.

Every workload draws its inputs from ``--seed`` through the functions
here, so the benchmark process and its child processes (the HTTP server
of ``serve_mixed``, the leader of ``follower_catchup``) build identical
inputs from the same seed without shipping them around.  The program
under test only ever sees the generated instances, deltas and requests.
"""

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores and traces, inside the checkout.
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

#: The genome generator's canonical seed; the pinned digest is for it.
DEFAULT_SEED = 7
#: Source scale of the batch and serving workloads (25,000 objects).
FULL_SCALE = 1.0
#: Source scale of the replication leader (6,250 objects).
LEADER_SCALE = 0.25
#: WAL records the leader holds for followers to drain: more than one
#: ``/wal`` page at ``WalReplica``'s default ``poll_limit`` of 500.
BACKLOG_RECORDS = 600
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Items in the calibration job, and its time at the reference speed.
CAL_ITEMS = 40_000
CAL_REF_MS = 25.0
#: The store's default flush policy, stated in every result.
FLUSH_POLICY = "fsync=off (WarehouseStore default)"

#: The 6-statement query program of the serving mix.
PROGRAM_TEXT = """program bench;

cloned = query { N | C in CloneT, S = C.seq, N = S.name };
genic = query { N | P in SeqGene, S = P.seq, N = S.name };
named = query { N | S in SequenceT, N = S.name };
core = intersect cloned, genic;
rest = difference named, core;
all = union core, rest;
"""


class BenchError(Exception):
    """The benchmark could not run (no program, a node failed)."""


def import_program():
    """Put the checkout's ``src`` on the path and import the program."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(
            f"no program source at {SRC}/repro: run the benchmark from "
            f"the root of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401  (fails loudly if the package is broken)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def source_instance(seed, scale):
    """The merged-source instance of ``genome.benchmark_database``."""
    from repro.workloads import genome
    return genome.source_instance(genome.benchmark_database(scale, seed=seed))


def build_morphase():
    """The ACe22DB -> warehouse system, compiled and preflighted."""
    from repro.adapters.acedb import AceDatabase, schema_of_acedb
    from repro.morphase import Morphase
    from repro.workloads import genome
    morphase = Morphase(
        [schema_of_acedb(AceDatabase("ACe22", genome.ACE_CLASSES))],
        genome.warehouse_schema(), genome.PROGRAM_TEXT)
    morphase.compile()
    morphase.preflight_report()
    return morphase


class DeltaStream:
    """Seeded 2-object ingest deltas (one Gene plus its Sequence).

    Names carry a ``b`` prefix the genome generator never uses, so every
    insert is new.  ``updates_every`` > 0 turns every n-th delta into an
    update of the previous delta's gene, which gives replication batches
    insert-then-update pairs to compose.
    """

    METHODS = ("shotgun", "pcr", "clone-walk", "cdna")

    def __init__(self, seed, updates_every=0):
        self.rng = random.Random(f"deltas-{seed}")
        self.seed = seed
        self.updates_every = updates_every
        self.count = 0
        #: name -> dna_length of every sequence inserted so far
        self.sequences = {}
        self.genes = []

    def _gene(self, name, description):
        from repro.model.values import Oid, Record, WolSet
        oid = Oid.keyed("Gene", name)
        return oid, Record.of(name=name, symbol=WolSet.of(f"sym-{name}"),
                              description=WolSet.of(description))

    def next(self):
        from repro.evolution.delta import Delta
        from repro.model.values import Oid, Record, WolSet
        index = self.count
        self.count += 1
        if (self.updates_every and self.genes
                and index % self.updates_every == self.updates_every - 1):
            name = self.genes[-1]
            oid, value = self._gene(
                name, f"revised {self.rng.randrange(10 ** 6)}")
            return Delta(updates={"Gene": {oid: value}})
        gene_name = f"Gb{self.seed}x{index}"
        seq_name = f"Sb{self.seed}x{index}"
        gene, gene_value = self._gene(
            gene_name, f"ingested {self.rng.randrange(10 ** 6)}")
        length = 1000 + self.rng.randrange(10 ** 6)
        seq = Oid.keyed("Sequence", seq_name)
        self.genes.append(gene_name)
        self.sequences[seq_name] = length
        return Delta(inserts={
            "Gene": {gene: gene_value},
            "Sequence": {seq: Record.of(
                name=seq_name, dna_length=WolSet.of(length),
                method=WolSet.of(self.rng.choice(self.METHODS)),
                gene=WolSet.of(gene))},
        })


# ----------------------------------------------------------------------
# Outputs
# ----------------------------------------------------------------------

def canonical_text(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def target_digest(instance):
    """SHA-256 of the canonical JSON dump of a target instance."""
    from repro.io.json_io import instance_to_json
    text = canonical_text(instance_to_json(instance))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(samples, fraction):
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def median(samples):
    return statistics.median(samples)


def calibrate():
    """Milliseconds for a fixed pure-Python job: this core's speed now.

    On a shared host, load from other tenants slows everything by up to
    2x for seconds to minutes at a time.  The workloads time this job
    around every measured operation and report each latency scaled to
    the reference speed, at which the job takes ``CAL_REF_MS``; the raw
    wall times are printed beside them.  The collector is off so the
    job's time does not depend on the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        keys = [(i * 7919) % 100_003 for i in range(CAL_ITEMS)]
        table = {key: (i, str(key)) for i, key in enumerate(keys)}
        sorted(table.items(), key=lambda item: item[1][1])
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Rolling calibration: one job between consecutive operations.

    ``factor()`` times the job again and returns the scale for the
    operation since the previous job: ``CAL_REF_MS`` over the mean of
    the two jobs around it.  ``measure`` runs the job, by default in
    this process.
    """

    def __init__(self, measure=calibrate):
        self.measure = measure
        self.last = measure()
        self.samples = [self.last]

    def factor(self):
        now = self.measure()
        scale = 2.0 * CAL_REF_MS / (self.last + now)
        self.last = now
        self.samples.append(now)
        return scale

    def note(self, raw_ms=None):
        text = (f"calibration job median {median(self.samples):.2f} ms "
                f"(reference {CAL_REF_MS} ms, n={len(self.samples)})")
        if raw_ms:
            text += f"; raw wall-time op p50 {median(raw_ms):.3f} ms"
        return text


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcMonitor:
    """Collector pauses and gen-2 collections, from ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = None

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.gen2 += info["generation"] == 2
            self._started = None

    def reset(self):
        self.pause_s = 0.0
        self.gen2 = 0

    def stats(self):
        return {"pause_s": self.pause_s, "gen2": self.gen2}

    def install(self):
        if self._callback not in gc.callbacks:
            gc.callbacks.append(self._callback)

    def uninstall(self):
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


# ----------------------------------------------------------------------
# Provenance stamp
# ----------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _source_digest():
    """SHA-256 over ``src/**/*.py``: names the code even without git."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def stamp(workload, seed, seconds, trace, sizes):
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "python": platform.python_version(),
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "flush_policy": FLUSH_POLICY, "inputs": sizes,
    }
