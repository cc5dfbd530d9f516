"""Command line: ``python -m bench {run,compare,golden} ...``.

``run [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
[--out PATH] [--smoke]`` measures; the last line of its output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``compare PARENT_DIR CHANGE_DIR`` applies the paired-run rule to two
directories of ``run --out`` files. ``golden`` re-records the fixtures.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append",
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per workload (default: run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="report per-layer metrics")
    run.add_argument("--out", help="write the results file here")
    run.add_argument("--smoke", action="store_true",
                     help="tiny inputs and sample counts, no golden check")

    compare = commands.add_parser("compare", help="paired-run comparison")
    compare.add_argument("parent_dir")
    compare.add_argument("change_dir")

    golden = commands.add_parser("golden", help="re-record golden answers")
    golden.add_argument("--workload", action="append")

    args = parser.parse_args(argv)
    if args.command == "run":
        from .runner import run as run_command

        return run_command(args)
    if args.command == "compare":
        from .compare import compare as compare_command

        return compare_command(args.parent_dir, args.change_dir)
    from .runner import record_golden

    return record_golden(args)


if __name__ == "__main__":
    sys.exit(main())
