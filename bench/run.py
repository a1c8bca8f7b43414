"""Benchmark of ``numsem.cli.run`` end to end, and per layer in a traced run.

    python3 bench/run.py --workload irreducible-tree --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every metric of every workload

With ``--trace 0`` it reports the end-to-end metrics of one workload; with
``--trace 1`` the per-layer metrics of one traced pass.  Each metric is
printed as ``name value unit``, and the last line is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# A pass of any workload's batch takes 1-1.5 s on a 2-core x86-64 machine.  The
# number of passes follows from --seconds alone, never from the program's
# speed, so that every commit is measured with the same estimator.
PASS_SECONDS = 1.5
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, passes: int, trace: bool = False,
               write_golden: bool = False, queries: int = 0) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--passes", str(passes), "--queries", str(queries)]
    if trace:
        cmd.append("--trace")
    if write_golden:
        cmd.append("--write-golden")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, queries: int) -> tuple[dict, dict]:
    res = run_worker(workload, seed, max(1, int(seconds / PASS_SECONDS)), queries=queries)
    # Each query's best time over the passes.  On a shared machine, slow
    # spells only ever add time, and a query's fastest pass is the one they
    # missed.
    passes = res["latencies"]
    per_query = [min(times) for times in zip(*passes)]
    metrics = {
        "wall_s": sum(per_query),
        "query_p50_ms": 1000 * statistics.median(per_query),
        "query_p90_ms": 1000 * statistics.quantiles(per_query, n=10)[8],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(res["setup_s"]),
    }
    return res, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(workload: str, seed: int, queries: int) -> tuple[dict, dict]:
    plain = run_worker(workload, seed, 1, queries=queries)
    traced = run_worker(workload, seed, 1, trace=True, queries=queries)
    values = dict(traced["trace"]["metrics"])
    values["trace.overhead_s"] = sum(traced["latencies"][0]) - sum(plain["latencies"][0])
    for layer in traced["trace"]["absent"]:
        print(f"layer {layer}: absent, its metrics read 0", file=sys.stderr)
    res = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": plain["problems"] + traced["problems"],
        "latencies": traced["latencies"],
    }
    units = tracer.metric_units()
    return res, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def report(workload: str, res: dict, metrics: dict) -> None:
    for problem in res["problems"]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    passes = res["latencies"]
    print(f"# {workload}: {res['attempted']} queries issued by one client in a closed loop"
          f" ({len(passes)} x {len(passes[0])}, each timed)")
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} fail_ratio {res['failed'] / res['attempted']:.6g} ratio")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30,
                   help=f"measuring time of an end-to-end run: one pass of the batch per"
                        f" {PASS_SECONDS:g} s, at least one (the traced run is one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced pass")
    p.add_argument("--queries", type=int, default=0,
                   help="run only the first N queries of each batch, for smoke tests (0: all)")
    p.add_argument("--write-golden", action="store_true",
                   help="record the default seed's output digests in bench/golden.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "numsem" / "__init__.py").is_file():
        print(f"no numsem package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.write_golden:
        problems = []
        for workload in workloads.WORKLOADS:
            res = run_worker(workload, workloads.DEFAULT_SEED, 1, write_golden=True)
            problems += res["problems"]
        print("\n".join(problems) or "golden digests written", file=sys.stderr)
        return 1 if problems else 0
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    correct, attempted, failed, combined = True, 0, 0, {}
    for workload in names:
        for mode in modes:
            if mode:
                res, metrics = per_layer(workload, args.seed, args.queries)
            else:
                res, metrics = end_to_end(workload, args.seed, args.seconds, args.queries)
            report(workload, res, metrics)
            correct &= res["failed"] == 0
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{workload}/" if args.workload == "all" else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
