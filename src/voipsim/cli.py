"""Command line: run scenarios, merge finished runs, standalone MOS math.

Exit codes: 0 success, 2 configuration or validation error, 3 runtime fault.
"""

from __future__ import annotations

import argparse
import os
import sys

from .metrics import (
    DomainError,
    delay_class,
    id_from_delay,
    mos_from_r,
    mos_label,
    r_factor,
)
from .runner import IncompatibleRuns, compare_runs, run_scenario
from .scenario import (
    BUILTIN_NAMES,
    ParseError,
    ValidationError,
    builtin_scenario,
    parse_scenario,
    with_overrides,
)
from .simcore import EventHandlerFault

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _resolve_scenario(token: str):
    if token in BUILTIN_NAMES:
        return builtin_scenario(token)
    if os.path.exists(token):
        return parse_scenario(token)
    raise ParseError(f"scenario {token!r}: not a builtin "
                     f"({', '.join(BUILTIN_NAMES)}) and no such file")


def _cmd_run(args) -> int:
    spec = _resolve_scenario(args.scenario)
    spec = with_overrides(spec, master_seed=args.seed, repetitions=args.reps)
    out_dir = args.out or os.environ.get("VOIPSIM_OUT") or "."
    # repetition k uses seed master_seed + k; outputs land side by side
    for k in range(spec.repetitions):
        out = run_scenario(spec, seed=spec.master_seed + k, out_dir=out_dir,
                           trace=args.trace, session_log=args.session_log)
        s = out.stats
        print(f"{out.scenario} seed={out.seed}: {s.calls_established} calls, "
              f"{s.packets_delivered}/{s.packets_generated} packets delivered "
              f"-> {out.csv_path}")
        # the output holds every packet log of its run; free it before the next
        del out
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            compare_runs(args.inputs, args.mode, fh)
        print(f"wrote {args.out}")
    else:
        compare_runs(args.inputs, args.mode, sys.stdout)
    return EXIT_OK


def _cmd_mos(args) -> int:
    if args.r is not None:
        if args.loss or args.delay is not None:
            raise ValidationError("--r cannot be combined with --delay/--loss")
        r = args.r
        delay_ms = None
    else:
        if args.delay is None:
            raise ValidationError("need either --r or --delay")
        delay_ms = args.delay
        r = r_factor(ppl_pct=args.loss, id_factor=id_from_delay(delay_ms))
    score = mos_from_r(r)
    quality, effort = mos_label(min(5.0, max(1.0, score)))
    print(f"R {r:.2f}")
    print(f"MOS {score:.3f} ({quality}: {effort})")
    if delay_ms is not None:
        print(f"delay class {delay_class(delay_ms)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voipsim",
        description="Deterministic VoIP-over-WiFi/UMTS simulator with a QoS "
                    "metrics engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--scenario", required=True,
                       help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or config file")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--reps", type=int, help="repetitions, seeds seed..seed+K-1")
    p_run.add_argument("--out", help="output directory (default $VOIPSIM_OUT or .)")
    p_run.add_argument("--trace", action="store_true",
                       help="also write the per-packet segment trace CSV")
    p_run.add_argument("--session-log", action="store_true",
                       help="also write the signaling transition log")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="merge metrics CSVs for plotting")
    p_cmp.add_argument("--mode", required=True, choices=("overlaid", "stacked"))
    p_cmp.add_argument("--out", help="destination file (default stdout)")
    p_cmp.add_argument("inputs", nargs="+", metavar="metrics.csv")
    p_cmp.set_defaults(func=_cmd_compare)

    p_mos = sub.add_parser("mos", help="standalone rating calculator")
    p_mos.add_argument("--r", type=float, help="transmission rating in [0, 100]")
    p_mos.add_argument("--delay", type=float, help="mouth-to-ear delay, ms")
    p_mos.add_argument("--loss", type=float, default=0.0, help="packet loss, percent")
    p_mos.set_defaults(func=_cmd_mos)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, IncompatibleRuns, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EventHandlerFault, OSError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
