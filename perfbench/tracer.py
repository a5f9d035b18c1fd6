"""Traced child process: the CLI run with timing wrappers on each layer.

Run as ``python tracer.py TRACE_OUT CLI_ARGS...``.  Before the CLI starts,
the module attributes the trial loop calls are replaced by wrappers that
record one span per call: name, start, end, parent span and trial id.  The
spans and a few per-trial counts stay in memory and are written to
TRACE_OUT as JSON when the CLI returns.  No file of the package changes.

A trial starts at its profile draw: every trial draws exactly one profile,
so each ``sample_profile`` call opens a new trial id on its thread, and
per-cell set-up calls (operator, pilot frame, modulation) close it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name, scope); scope "trial" spans run inside a
# trial, scope "cell" spans build per-cell state before the trials start
LAYERS = (
    ("afdm_sense.harness", "sample_profile", "channel.sample_profile", "trial"),
    ("afdm_sense.harness", "apply_channel", "channel.apply_channel", "trial"),
    ("afdm_sense.harness", "daft_demodulate", "daft_core.daft_demodulate", "trial"),
    ("afdm_sense.harness", "extract_measurements", "sensing_model.extract_measurements", "trial"),
    ("afdm_sense.harness", "dechirp_decimate_receive", "subnyquist.dechirp_decimate_receive", "trial"),
    ("afdm_sense.harness", "hihtp_recover", "hihtp.recover", "trial"),
    ("afdm_sense.harness", "htp_recover", "hihtp.recover", "trial"),
    ("afdm_sense.hihtp", "hierarchical_threshold", "hihtp.threshold", "trial"),
    ("afdm_sense.hihtp", "flat_threshold", "hihtp.threshold", "trial"),
    ("afdm_sense.hihtp", "restricted_least_squares", "hihtp.restricted_least_squares", "trial"),
    ("afdm_sense.harness", "build_measurement_operator", "sensing_model.build_measurement_operator", "cell"),
    ("afdm_sense.harness", "build_pilot_frame", "sensing_model.build_pilot_frame", "cell"),
    ("afdm_sense.harness", "idaft_modulate", "daft_core.idaft_modulate", "cell"),
)


class Tracer:
    """Span and count store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, list] = {
            "active_paths": [],
            "recovery": [],
            "operator_bytes": [],
            "decimation": [],
        }
        self._span_ids = itertools.count()
        self._trial_ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr: str, name: str, scope: str, on_result=None) -> None:
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            if name == "channel.sample_profile":
                self._local.trial = next(self._trial_ids)
            elif scope == "cell":
                self._local.trial = None
            trial = getattr(self._local, "trial", None)
            stack = self._stack()
            span_id = next(self._span_ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, trial))
            if on_result is not None:
                on_result(result, trial)
            return result

        setattr(module, attr, timed)

    def install(self) -> None:
        probes = {
            "channel.sample_profile": lambda r, t: self.counts["active_paths"].append(
                (t, int(r.mask.sum()))
            ),
            "hihtp.recover": lambda r, t: self.counts["recovery"].append(
                (t, r.iterations, r.converged_by)
            ),
            "sensing_model.build_measurement_operator": lambda r, t: self.counts[
                "operator_bytes"
            ].append(int(r.matrix.nbytes)),
        }
        for mod_name, attr, name, scope in LAYERS:
            module = importlib.import_module(mod_name)
            self.wrap(module, attr, name, scope, probes.get(name))
        # the receiver's folded DFT size, read from the plan it computes
        subnyquist = importlib.import_module("afdm_sense.subnyquist")
        plan_fn = subnyquist.decimation_plan

        def plan(*args, **kwargs):
            result = plan_fn(*args, **kwargs)
            self.counts["decimation"].append(int(result.decimation))
            return result

        subnyquist.decimation_plan = plan

    def dump(self, path: str) -> None:
        doc = {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "trial": s[5]}
                for s in sorted(self.spans)
            ],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_OUT CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from afdm_sense import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
