"""Run one benchmark workload and print its result as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload adhoc_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the gated end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload again with ``repro.obs`` switched on
and reports its per-layer metrics, printing the per-layer span table
(count, total and self time) first.  Lines before the last one are for
people: host provenance, tails with their sample counts, the table.  The
last line is the result object.  A wrong answer exits with status 1; a
checkout without the package's sources exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent


def _parser(workloads: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="history size factor; below 1 only for the benchmark's own tests",
    )
    return parser


def pin_to_one_cpu() -> int:
    """Pin this process, and so every thread and process it starts later,
    to one CPU.

    The host's CPUs change speed independently, so the reference kernel
    of ``common.HostClock`` tracks an operation only when both run on the
    same CPU.  This runs before NumPy starts its BLAS threads.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: Sequence[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    args = _parser([w["name"] for w in spec["workloads"]]).parse_args(argv)
    if args.seconds < 1 or args.scale <= 0:
        print("perfbench: --seconds must be >= 1 and --scale > 0", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import CLOCK, host_probe

    # SIGTERM unwinds like an exception, so the servers a run started are
    # killed and its scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        CLOCK.start(work)
        host = host_probe()
        if args.workload == "serve_ingest":
            from perfbench import served

            report = served.run(args.seed, args.seconds, args.scale, bool(args.trace), ROOT, work)
        else:
            from perfbench import inproc

            report = inproc.run(
                args.workload, args.seed, args.seconds, args.scale, bool(args.trace), work
            )
    finally:
        CLOCK.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there

    detail: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "cpu": cpu, **host, **report.detail
    }
    print("# detail " + json.dumps(detail, sort_keys=True))
    if args.trace:
        values = {**detail, **report.layers}
        wanted = spec["per_layer"]
        for line in report.table:
            print("# " + line)
    else:
        values = report.metrics
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    tally = report.tally
    for mismatch in tally.mismatches:
        print(f"# WRONG: {mismatch}", file=sys.stderr)
    correct = not tally.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": len(tally.mismatches),
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
