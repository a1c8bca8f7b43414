"""One benchmark process: runs a workload's query batch through ``numsem.cli.run``.

A closed loop with one client: each query is issued in-process after the
previous one returned, with stdout and stderr captured.  Only the
``cli.run`` call is timed; output checks, digests and garbage collection
happen between queries, outside the timed region.  The first pass checks
every query with ``check.check_query`` (and against the golden digests on
the default seed); later passes must reproduce the first pass's digests.

Run by ``run.py`` in a fresh interpreter, so that peak RSS belongs to this
workload and the tracing wrappers exist only in the traced process.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
TRACE_DIR = BENCH.parent / ".bench_build" / "numsem-bench"
GOLDEN = BENCH / "golden.json"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, required=True, help="times to run the batch")
    p.add_argument("--queries", type=int, default=0,
                   help="run only the first N queries of the batch (0: all)")
    p.add_argument("--trace", action="store_true",
                   help="trace the run and write spans and a summary under .bench_build/")
    p.add_argument("--write-golden", action="store_true",
                   help="record this run's digests as the golden ones for its seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import numsem.cli  # noqa: E402  (path set just above)
    import check
    import workloads

    batch = workloads.build(args.workload, args.seed)
    if args.queries:
        batch = batch[:args.queries]
    golden = None
    if args.seed == workloads.DEFAULT_SEED and not args.write_golden:
        golden = json.loads(GOLDEN.read_text())[args.workload]

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    digests: list[tuple[int | str, str]] = []
    bad: dict[int, str] = {}
    passes: list[list[float]] = []  # cli.run time of each query, per pass
    setup: list[float] = []
    records = 0
    attempted = failed = 0
    order = list(range(len(batch)))
    for n in range(args.passes):
        first = not passes
        times = [0.0] * len(batch)
        if not first:
            # Each later pass visits the queries in another seeded order, so that
            # a query's samples fall at different points of the machine's slow spells.
            random.Random(f"{args.seed}/pass/{n}").shuffle(order)
        for i in order:
            query = batch[i]
            if tracer is not None:
                tracer.query = i
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = numsem.cli.run(query.argv)
                except Exception as exc:  # a crash fails the query, not the benchmark
                    code = f"raised {type(exc).__name__}"
                elapsed = time.perf_counter() - start
            times[i] = elapsed
            attempted += 1
            stdout = out.getvalue()
            digest = (code, hashlib.sha256(stdout.encode()).hexdigest())
            if first:
                digests.append(digest)
                problems = check.check_query(query, code, stdout)
                if golden is not None and golden_line(query, digest) != golden[i]:
                    problems.append("stdout or exit code differs from the golden digest")
                if problems:
                    bad[i] = f"{' '.join(query.argv)}: {problems[0]}"
                if code == 0:
                    records += stdout.count("\n")
            elif digest != digests[i]:
                bad.setdefault(i, f"{' '.join(query.argv)}: output changed between passes")
            failed += i in bad
            del out, err, stdout
            # Every query starts with the young generations empty.  A full
            # collection walks all objects of the process (3 ms on a 2-core
            # x86-64 machine), so it runs once per pass.
            gc.collect(1)
        gc.collect()
        passes.append(times)
        setup.append(measure_setup())

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(bad.values())[:10],
        "latencies": passes,
        "setup_s": setup,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.write_golden:
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data[args.workload] = [golden_line(q, d) for q, d in zip(batch, digests)]
        GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = write_trace(tracer, batch, records, sum(passes[0]), args.workload)
    print(json.dumps(result))
    return 0


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing numsem.cli and building its parser.

    Spawned between passes, so that a slow spell of the machine does not
    hit every sample of a run.
    """
    cmd = [sys.executable, "-c", "import numsem.cli; numsem.cli.build_parser()"]
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would quantize the measurement.
    subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - start


def golden_line(query, digest: tuple[int | str, str]) -> str:
    """Exit code, sha256 of stdout and the query, as stored in golden.json."""
    return f"{digest[0]} {digest[1]} {' '.join(query.argv)}"


def write_trace(tracer, batch, records: int, traced_wall: float, workload: str):
    """Aggregate the spans, write them and a summary, and return the per-layer metrics."""
    import tracer as tracing

    def group_of(query: int) -> str:
        return batch[query].group if query >= 0 else "-"

    agg = tracer.aggregate(group_of)
    counters: dict[str, int] = {}
    group_counters: dict[str, dict[str, int]] = {}
    for (name, query), value in tracer.counters.items():
        counters[name] = counters.get(name, 0) + value
        per_group = group_counters.setdefault(group_of(query), {})
        per_group[name] = per_group.get(name, 0) + value
    metrics = tracing.layer_metrics(agg, counters, records, traced_wall)
    groups: dict[str, dict[str, dict[str, float]]] = {}
    for (layer, group), calls in agg["calls"].items():
        groups.setdefault(group, {})[layer] = {
            "calls": calls, "self_s": agg["self_s"][layer, group]}
    for group, values in group_counters.items():
        groups.setdefault(group, {})["counters"] = values
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    with open(TRACE_DIR / f"trace-{workload}.spans", "wb") as fh:
        tracer.write_spans(fh)
    summary = {
        "span_format": "float64 records of (span id, layer index, parent span id or -1,"
                       " query index, start s, end s)",
        "layers": [layer for layer, *_ in tracing.LAYERS],
        "absent_layers": tracer.absent,
        "queries": [" ".join(q.argv) for q in batch],
        "groups": groups,
        "metrics": metrics,
    }
    (TRACE_DIR / f"trace-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return {"metrics": metrics, "absent": tracer.absent}


if __name__ == "__main__":
    sys.exit(main())
