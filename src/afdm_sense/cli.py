"""Command line front end: run experiments, print overhead and rate figures."""

from __future__ import annotations

import argparse
import gc
import sys

from .harness import ExperimentConfig, emit_report, pilot_overhead, run_monte_carlo
from .subnyquist import RadarConfig, sampling_rate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afdm-sense",
        description="AFDM compressed sensing of doubly sparse delay-Doppler channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the Monte-Carlo sweep described by a JSON config")
    run.add_argument("config", help="path to the experiment config (JSON)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", default=None, help="output path (default: results.<format>)")

    over = sub.add_parser("overhead", help="closed-form pilot plus guard overhead")
    over.add_argument("waveform", choices=("afdm", "ofdm", "otfs"))
    over.add_argument("--n-pilots", type=int)
    over.add_argument("--l-taps", type=int)
    over.add_argument("--q-max", type=int)
    over.add_argument("--chirp-num", type=int, help="afdm only (default: 1)")
    over.add_argument("--n-pilots-td", type=int)
    over.add_argument("--n-pilots-fd", type=int)
    over.add_argument("--n-symbols", type=int)
    over.add_argument("--n-otfs", type=int)
    over.add_argument("--m-otfs", type=int)

    rate = sub.add_parser("rate", help="minimal de-chirped sampling rate")
    rate.add_argument("--n-pilots", type=int, required=True)
    rate.add_argument("--l-taps", type=int, required=True)
    rate.add_argument("--chirp-num", type=int, default=1)
    rate.add_argument("--n", type=int, required=True)
    rate.add_argument("--bandwidth-hz", type=float, required=True)
    rate.add_argument("--cpp-len", type=int, default=0)
    rate.add_argument("--include-cpp", action="store_true")
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    records = run_monte_carlo(cfg)
    out = args.out or f"results.{args.format}"
    path = emit_report(records, args.format, out)
    print(f"wrote {len(records)} records to {path}")
    return 0


def _cmd_overhead(args) -> int:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "waveform") and v is not None
    }
    if args.waveform == "afdm":
        params.setdefault("chirp_num", 1)
    print(pilot_overhead(args.waveform, params))
    return 0


def _cmd_rate(args) -> int:
    cfg = RadarConfig(
        bandwidth_hz=args.bandwidth_hz,
        n=args.n,
        cpp_len=args.cpp_len,
        include_cpp_in_duration=args.include_cpp,
    )
    info = sampling_rate(args.n_pilots, args.l_taps, args.chirp_num, cfg)
    print(f"f_s_hz {info.f_s_hz!r}")
    print(f"compression_ratio {info.compression_ratio!r}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "overhead": _cmd_overhead, "rate": _cmd_rate}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run ``main`` on the process's arguments and exit with its status.

    ``gc.freeze`` first moves every object still alive, numpy's and the
    package's among them, out of the collector's reach, so the collections
    at interpreter shutdown do not walk them.
    """
    status = main()
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
