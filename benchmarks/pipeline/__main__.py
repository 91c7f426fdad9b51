"""``python -m benchmarks.pipeline run|compare`` from the repository root.

``run`` prints every metric with its unit, then, as the last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  It runs
the ``repro`` sources of the checkout it sits in and exits 2 without a
result when they are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.pipeline import catalog


def _use_checkout_sources() -> None:
    src = catalog.ROOT_DIR / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"pipeline benchmark: no repro sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload and print its metrics")
    run.add_argument("--workload", required=True, choices=catalog.workloads())
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=20.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run reporting per-layer metrics")
    run.add_argument("--trace-out", metavar="FILE",
                     help="span JSONL of a traced run (default under build/pipeline/)")
    run.add_argument("--out", metavar="FILE", help="write the full report as JSON")
    run.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")

    compare = sub.add_parser("compare", help="judge a change against its parent")
    compare.add_argument("--parent", nargs="+", required=True, metavar="REPORT")
    compare.add_argument("--change", nargs="+", required=True, metavar="REPORT")

    probe = sub.add_parser("setup-probe", help=argparse.SUPPRESS)
    probe.add_argument("--workload", required=True, choices=catalog.workloads())
    probe.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "compare":
        from benchmarks.pipeline.compare import compare_files

        text, regressed = compare_files(args.parent, args.change)
        print(text)
        return 1 if regressed else 0

    _use_checkout_sources()
    from benchmarks.pipeline import harness

    if args.command == "setup-probe":
        print(json.dumps({"setup_s": harness.run_probe(args.workload, args.seed)}))
        return 0

    trace_out = args.trace_out
    if args.trace and trace_out is None:
        trace_out = str(harness.WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    report = harness.run(
        args.workload, args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke, trace_out=trace_out,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(harness.render(report))
    print(json.dumps(harness.contract_line(report), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
