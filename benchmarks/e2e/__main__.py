"""End-to-end benchmark command.

    python -m benchmarks.e2e run [--workload W] [--seed S] [--seconds N]
                                 [--trace 0|1] [--smoke] [--out DIR]

Without ``--workload`` every workload runs; without ``--trace`` each runs
untraced (end-to-end metrics) and then traced (per-layer metrics).  The
metrics are printed by name with their units, and the last line of
stdout is one JSON record.  The exit code is 1 when a correctness check
fails.  Run it from the repository root; it imports ``repro`` from
``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from benchmarks.e2e import bench  # noqa: E402
from benchmarks.e2e.tracing import write_jsonl  # noqa: E402

#: Default measured seconds per run (BENCHMARK.json's run_seconds).
DEFAULT_SECONDS = 15
SMOKE_SECONDS = 0.5


def _print_result(workload: str, trace: bool, result: bench.Result) -> None:
    kind = "traced" if trace else "untraced"
    print(f"== {workload} ({kind})")
    record = result.record(trace)
    for name, metric in record["metrics"].items():
        if trace and not metric["value"] and name.endswith((".calls", ".share")):
            continue  # spans of the other path
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    for name, value in result.info.items():
        print(f"  {name:44s} {value}")
    print(f"  attempted {result.attempted}, failed {result.failed}")
    for problem in result.problems:
        print(f"  FAILED CHECK: {problem}")


def _save(out_dir: str, result: bench.Result, trace: bool) -> None:
    saved = result.record(trace)
    saved["info"] = result.info
    saved["problems"] = result.problems
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(saved, fh, indent=1)
    if result.spans:
        write_jsonl(result.spans, os.path.join(out_dir, "spans.jsonl"))


def cmd_run(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(bench.WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    records = {}
    for workload in workloads:
        for trace in traces:
            if args.out:
                workdir = os.path.join(
                    args.out, f"{workload}-seed{args.seed}-trace{int(trace)}")
                shutil.rmtree(workdir, ignore_errors=True)  # a rerun starts clean
                os.makedirs(workdir)
            else:
                scratch = os.path.join(ROOT, ".e2e_bench")
                os.makedirs(scratch, exist_ok=True)
                workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
            try:
                result = bench.run(ROOT, workload, args.seed, seconds, trace,
                                   workdir, smoke=args.smoke)
                if args.out:
                    _save(workdir, result, trace)
            finally:
                if not args.out:
                    shutil.rmtree(workdir, ignore_errors=True)
            _print_result(workload, trace, result)
            records[(workload, trace)] = result.record(trace)
    if len(records) == 1:
        final = next(iter(records.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}/{name}": m for (w, _t), r in records.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def cmd_coldstart(args: argparse.Namespace) -> int:
    from benchmarks.e2e import train

    train.cold_start(args.workload, args.seed)
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description="End-to-end benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads and print their metrics")
    p.add_argument("--workload", choices=bench.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="measured seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="1: per-layer metrics; 0: end-to-end (default: both)")
    p.add_argument("--smoke", action="store_true",
                   help="short runs, one cold start, small experience store")
    p.add_argument("--out", help="keep spans and results under this directory")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("coldstart", help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True, choices=sorted(bench.train.TRAIN_WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_coldstart)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
