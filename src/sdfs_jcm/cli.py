"""Command-line interface.

Verbs:
    run <config>                 execute a configuration file
    preset <name> [--out DIR]    execute a built-in figure preset
    check                        run the full invariant suite
    overlap --p1 ... --p2 ...    print the scalar product of two states

Exit codes: 0 success, 1 invariant failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import sys

from .config import parse_config, parse_state
from .presets import PRESET_NAMES, figure_preset
from .runner import run
from .sdfs import sdfs_overlap


@functools.cache  # parse_args leaves the parser as it was, even on a usage error
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdfs-jcm",
        description=(
            "Exact Jaynes-Cummings dynamics for a cavity prepared in a "
            "squeezed displaced Fock state"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a configuration file")
    p_run.add_argument("config", help="path to a key = value configuration file")

    p_preset = sub.add_parser("preset", help="execute a built-in figure preset")
    p_preset.add_argument("name", help=f"one of: {', '.join(PRESET_NAMES)}")
    p_preset.add_argument("--out", help="output directory (default: the preset name)")

    sub.add_parser("check", help="run the full invariant suite")

    p_overlap = sub.add_parser(
        "overlap", help="scalar product of two squeezed displaced Fock states"
    )
    p_overlap.add_argument("--p1", required=True, help="e.g. 'alpha0_re=1,r=0.5,m=1'")
    p_overlap.add_argument("--p2", required=True, help="same format as --p1")

    return parser


def _report_run(result) -> int:
    for key, value in result.summary.items():
        print(f"{key} = {value}")
    for path in result.files:
        print(f"wrote {path}")
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            with open(args.config) as handle:
                cfg = parse_config(handle.read())
            return _report_run(run(cfg))
        if args.verb == "preset":
            cfg = figure_preset(args.name)
            if args.out:
                cfg = dataclasses.replace(cfg, output_dir=args.out)
            return _report_run(run(cfg))
        if args.verb == "check":
            # deferred: only `check` needs the invariant suite and its oracle
            from .selfcheck import run_all
            results = run_all()
            for res in results:
                status = "PASS" if res.passed else "FAIL"
                print(f"{status}  {res.name}: {res.detail}")
            return 0 if all(res.passed for res in results) else 1
        if args.verb == "overlap":
            value = sdfs_overlap(parse_state(args.p1), parse_state(args.p2))
            print(f"overlap = {value.real:.17g} {value.imag:+.17g}i")
            print(f"modulus = {abs(value):.17g}")
            print(f"phase   = {cmath.phase(value):.17g} rad")
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    sys.exit(main())
