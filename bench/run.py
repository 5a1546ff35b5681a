"""Benchmark of gasprover's prove(): verdict time, certificate check time and,
in a traced run, the time and work of each module.

Usage:
    python3 bench/run.py --workload {planar,order3,batch} --seed N \
        --seconds S --trace {0,1}

It runs the package from the ``src/`` directory next to this one, passes over
the workload's cases while the next pass is expected to end within S seconds
(at least two passes), checks every answer with an independent oracle and
every certificate by replaying it, and prints as its last line one JSON
object with the metrics. End-to-end times are scaled to a fixed host speed
(see speed.py). The line before the result gives quartiles, raw times, pass
counts, failures and per-case times.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead. Exit codes: 0 with a result, 1 when two
passes disagree on a verdict or count, 2 when the sources are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
import layers
from speed import reference, scaled
from tracer import Tracer, installed, quartiles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9


class NondeterminismError(Exception):
    pass


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class SetupProbe:
    """Set-up time in fresh interpreters, sampled between passes so that the
    median spans the whole run; the first interpreter writes the bytecode
    and is not counted. Samples are kept raw and scaled."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.raw, self.times = [], []
        self.run()

    def run(self) -> float:
        out = subprocess.run(self.cmd, check=True, capture_output=True,
                             text=True, timeout=60)
        return float(out.stdout.split()[-1])

    def add(self, seconds: float, before: float, after: float) -> None:
        self.raw.append(seconds)
        self.times.append(scaled(seconds, before, after))

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            before = reference()
            seconds = self.run()
            self.add(seconds, before, reference())
        return statistics.median(self.times)


def _run_passes(inputs, seconds: float, trace: bool, setup: SetupProbe | None):
    """Passes while the next one is expected to end in time, and at least
    two; with trace, every second one is traced. Each pass is followed by
    its certificate check, the oracle and a set-up sample, with a run of
    reference() between each two of these timed spans.

    Returns the untraced passes, the traced ones with their span metrics,
    and the peak resident memory in MB after set-up and the first pass (later
    passes repeat its work; only the benchmark's own records grow).
    """
    # passes imports gasprover, which main() has put on the path by now.
    from passes import check_pass, judge_pass, run_pass

    plain, traced = [], []
    expected = expected_counts = None
    start = time.perf_counter()
    done = 0
    ref = reference()
    while done < 2 or (time.perf_counter() - start) / done * (done + 1) <= seconds:
        done += 1
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        hooks = (contextlib.nullcontext(set()) if tracer is None
                 else installed(tracer, layers.HOOKS))
        with hooks as hooked:
            p = run_pass(inputs, tracer)
            middle = reference()
            check_pass(p, tracer)
        end = reference()
        p.scaled_wall_s = scaled(p.wall_s, ref, middle)
        p.scaled_check_s = scaled(p.check_s, middle, end)
        if tracer is None:
            plain.append(p)
        else:
            metrics = layers.span_metrics(tracer.spans, hooked, p.wall_s)
            traced.append((p, metrics))
            counts = {k: v for k, v in metrics.items()
                      if layers.UNITS[k] not in ("s", "share")}
            expected_counts = expected_counts or counts
            if counts != expected_counts:
                raise NondeterminismError("two traced passes disagree on a count")
        judge_pass(p)
        signature = ([r.signature() for r in p.runs], p.cert_bytes)
        expected = expected or signature
        if signature != expected:
            raise NondeterminismError("two passes disagree on a verdict or count")
        if done == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if setup is None:
            ref = end
        else:
            setup_s = setup.run()
            ref = reference()
            setup.add(setup_s, end, ref)
    return plain, traced, peak_mb


def _quartile_dict(q):
    return dict(zip(("q1", "median", "q3"), q))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gasprover" / "__init__.py").is_file():
        print(f"error: no gasprover package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gasprover

    if Path(gasprover.__file__).resolve().parent != SRC / "gasprover":
        print(f"error: gasprover imported from {gasprover.__file__}", file=sys.stderr)
        return 2

    inputs = cases.build(args.workload, args.seed)
    setup = None if args.trace else SetupProbe(args.workload, args.seed)
    try:
        plain, traced, peak_mb = _run_passes(inputs, args.seconds, bool(args.trace),
                                             setup)
    except NondeterminismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = plain + [p for p, _ in traced]
    runs = [r for p in everything for r in p.runs]
    attempted = len(runs)
    failed = sum(1 for r in runs if r.problems)
    decided = sum(1 for r in runs if r.decided)
    wall = quartiles(p.scaled_wall_s for p in plain)
    check = quartiles(p.scaled_check_s for p in plain)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "wall_s": _quartile_dict(wall),
        "check_s": _quartile_dict(check),
        "raw_wall_s": _quartile_dict(quartiles(p.wall_s for p in plain)),
        "raw_check_s": _quartile_dict(quartiles(p.check_s for p in plain)),
        "fail_share": failed / attempted,
        "failures": sorted({m for r in runs for m in r.problems})[:20],
        "cases": _case_rows(inputs, plain, [p for p, _ in traced]),
    }

    if args.trace:
        metrics = _per_layer(plain, traced)
        info["traced_passes"] = len(traced)
    else:
        metrics = {
            "setup_s": _metric(setup.median(), "s"),
            "wall_s": _metric(wall[1], "s"),
            "check_s": _metric(check[1], "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "decided_share": _metric(decided / attempted, "share"),
        }
        info["raw_setup_s"] = statistics.median(setup.raw)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _case_rows(inputs, plain, traced) -> list[dict]:
    """Each case's answer and median time, for information only."""
    rows = []
    for i, case in enumerate(inputs):
        row = {"rde": case.rde, "call": case.call, "k": case.k,
               "answer": plain[0].runs[i].answer,
               "median_s": statistics.median(p.runs[i].seconds for p in plain)}
        if traced:
            row["traced_s"] = statistics.median(p.runs[i].seconds for p in traced)
        rows.append(row)
    return rows


def _per_layer(plain, traced) -> dict:
    first = plain[0]
    values = {}
    names = {k for _, m in traced for k in m}
    for name in names:
        values[name] = statistics.median(m[name] for _, m in traced)
    values.update(layers.certificate_counts(first.certificates()))
    values["positivity.cert.bytes"] = first.cert_bytes
    values["positivity.cert.replay_s"] = statistics.median(
        p.replay_s for p in plain + [p for p, _ in traced])
    values["trace.overhead_s"] = (
        statistics.median(p.scaled_wall_s for p, _ in traced)
        - statistics.median(p.scaled_wall_s for p in plain))
    for name, unit, layer in layers.SPAN_METRICS:
        if name not in values:
            print(f"warning: {name} is absent: layer {layer} has no hook",
                  file=sys.stderr)
    return {name: _metric(values[name], layers.UNITS[name]) for name in sorted(values)}


if __name__ == "__main__":
    sys.exit(main())
