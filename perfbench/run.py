"""End-to-end benchmark of the WOL/Morphase warehouse.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch_transform --seed 7 \\
        --seconds 20 --trace 0

Workloads: ``batch_transform`` (repeated ``Morphase.transform``),
``serve_mixed`` (warm HTTP ingest, lookups and programs against a
server process) and ``follower_catchup`` (follower bootstrap plus WAL
catch-up against a leader process).  Each run builds its inputs from
``--seed``, sets up, warms up untimed, measures until its timed
operations add up to ``--seconds``, and checks every output.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``peak_rss_mb``,
``op_p50_ms``, ``ops_per_s``); with ``--trace 1`` they are the
per-layer ones of ``tracing.LAYERS``, from wrappers installed in every
measured process, plus the tracing overhead.  Lines before it give the
provenance stamp and each workload's own operation latencies with their
sample counts.  ``--layers`` prints the per-layer table.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the benchmark could not run (for example without ``src/``).
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import batch  # noqa: E402
import common  # noqa: E402
import follower  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {"batch_transform": batch.run, "serve_mixed": serve.run,
             "follower_catchup": follower.run}

#: end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms",
              "ops_per_s": "1/s"}


def keep_traces(rundir, workload, seed):
    """Move the span files a traced run wrote out of its scratch dir."""
    traces = os.path.join(common.RUN_DIR, "traces")
    for name in os.listdir(rundir):
        if name.endswith("-spans.json"):
            os.makedirs(traces, exist_ok=True)
            os.replace(os.path.join(rundir, name), os.path.join(
                traces, f"{workload}-seed{seed}-{name}"))


def print_layers():
    for name, unit, better, _span, what, moves in tracing.LAYERS:
        print(f"{name} [{unit}, {better} is better]: {what}\n    -> {moves}")


def main(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the WOL/Morphase warehouse.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true",
                        help="print the per-layer metric table and exit")
    args = parser.parse_args(argv)
    if args.layers:
        print_layers()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        common.import_program()
        os.makedirs(common.RUN_DIR, exist_ok=True)
    except (common.BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.RUN_DIR)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          args.trace, rundir)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        keep_traces(rundir, args.workload, args.seed)
        shutil.rmtree(rundir, ignore_errors=True)

    print(json.dumps({"stamp": common.stamp(
        args.workload, args.seed, args.seconds, args.trace,
        result["sizes"])}))
    for name, (value, unit, samples) in result["report"].items():
        print(f"{args.workload} {name} = {value:.4f} {unit} (n={samples})")
    attempted = result["attempted"]
    print(f"{args.workload} error_rate = {result['failed'] / attempted:.4f} "
          f"({result['failed']} of {attempted})")
    for note in result["notes"]:
        print(f"{args.workload} {note}")
    metrics = result["metrics"]
    if not args.trace:
        metrics = {name: {"value": float(metrics[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
