#!/usr/bin/env python3
"""The v2vsim benchmark: closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_sim --seed 1 --seconds 20 --trace 0

One client runs one op after another (a closed loop, because v2vsim is a
batch tool whose users run one job after the next) over a pool of inputs
drawn from ``--seed``.  The first pass over the pool is an untimed warm-up
that also produces the reference outputs; the timed phase then makes whole
passes over the pool until ``--seconds`` of op time have been measured and
MIN_SAMPLES ops have succeeded, the latter for at most MAX_STRETCH times
``--seconds``.
Every op's output is checked between ops, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs each pool item untraced and then traced,
so the tracing overhead is the difference of the two latency medians, and
the traced outputs must equal the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
ops that raised or failed a check.  ``op_p50_ms`` and ``op_fail_frac`` are
printed above it.  A fleet whose plan ratio the codec cannot reach exits
with the documented code 3; the warm-up pass confirms independently that
the named link's budget is out of reach, later runs must reproduce the
outcome byte for byte, and such ops are left out of the latency
percentiles and counted in the printed ``op_fail_frac``.

``setup_s`` is the median of SETUP_PROBES fresh interpreters, started
between ops at even steps of the timed phase, so that they sample the
host's speed over the whole run as the ops do.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

if not env.source_present():
    sys.exit(f"perfbench: no v2vsim sources under {env.SRC}")

import layers  # noqa: E402  (needs the sources found above)
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_SAMPLES = 100  # so that ten latency samples lie beyond p90
MAX_STRETCH = 2.0  # plan_large ops are too slow to reach MIN_SAMPLES in time
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK_ROOT = Path(".perfbench_work")
PROBLEMS_SHOWN = 5


def run_probe(workload: str, seed: int, importtime: bool) -> tuple[float, str]:
    """Set-up seconds of one fresh interpreter, and its standard error."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(PROBE), workload, str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    ready, excluded = (float(v) for v in proc.stdout.split())
    return ready - start - excluded, proc.stderr


class Run:
    """The warm-up and timed phases of one workload, and what they measured."""

    def __init__(self, wl, tracer, probe):
        self.wl = wl
        self.tracer = tracer
        self.probe = probe
        self.probes: list[tuple[float, str]] = []
        self.problems: list[str] = []
        self.refs: list[bytes | None] = []  # fingerprints of warm-up outputs
        self.latencies = {False: [], True: []}  # traced? -> successful op seconds
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.documented = 0
        self.traced_ops = 0
        self.traced_outputs: dict[int, bytes] = {}  # fingerprints
        self.oracle = [0, 0]  # matched, compared

    def _op(self, item, traced: bool):
        self.wl.prepare(item)
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            raw = self.wl.run(item)
        except Exception as exc:  # a failed op is counted, the run goes on
            raw = exc
        seconds = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        return raw, seconds

    def _note(self, text: str) -> None:
        if len(self.problems) < PROBLEMS_SHOWN:
            self.problems.append(text)

    def warm_up(self) -> None:
        for index, item in enumerate(self.wl.pool):
            raw, _ = self._op(item, False)
            if isinstance(raw, Exception):
                self._note(f"warm-up item {index} raised {raw!r}")
                self.refs.append(None)
                continue
            out = self.wl.collect(item, raw)
            issues = self.wl.check(item, out, None)
            for issue in issues:
                self._note(f"warm-up item {index}: {issue}")
            # no reference for a wrong output: later ops on the item are
            # checked in full again, and fail the same way
            self.refs.append(None if issues else workloads.fingerprint(out))

    def timed(self, seconds: float) -> None:
        pool = self.wl.pool
        k = 0
        # whole passes, so every pool item weighs the same in each figure and
        # the share of documented failures is the pool's, exactly
        while k % len(pool) or self.elapsed < seconds or (
                len(self.latencies[False]) < MIN_SAMPLES
                and self.elapsed < MAX_STRETCH * seconds):
            if len(self.probes) < SETUP_PROBES and \
                    self.elapsed >= len(self.probes) * seconds / SETUP_PROBES:
                self.probes.append(self.probe())
            index = k % len(pool)
            item = pool[index]
            # a traced run pairs each op with an untraced one on the same
            # item; which goes first alternates, per item and per pass, so
            # warm caches favour neither
            first_traced = (k + k // len(pool)) % 2 == 1
            modes = ((first_traced, not first_traced) if self.tracer else (False,))
            for traced in modes:
                raw, took = self._op(item, traced)
                self.elapsed += took
                self.attempted += 1
                self.traced_ops += traced
                if isinstance(raw, Exception):
                    self.failed += 1
                    self._note(f"item {index} raised {raw!r}")
                    continue
                out = self.wl.collect(item, raw)
                issues = self.wl.check(item, out, self.refs[index])
                if issues:
                    self.failed += 1
                    self._note(f"item {index}: {issues[0]}")
                    continue
                if self.wl.documented_failure(out):
                    self.documented += 1
                else:
                    self.latencies[traced].append(took)
                if traced:
                    self.traced_outputs.setdefault(index, workloads.fingerprint(out))
                    match = self.wl.oracle_match(item, out)
                    if match is not None:
                        self.oracle[0] += match
                        self.oracle[1] += 1
            k += 1
        while len(self.probes) < SETUP_PROBES:
            self.probes.append(self.probe())


def percentile_ms(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        raise RuntimeError(f"only {len(samples)} successful ops; cannot take percentiles")
    if q == 50:
        return statistics.median(samples) * 1000.0
    return statistics.quantiles(samples, n=100)[q - 1] * 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(env.ROOT)

    info = env.environment()
    traced = bool(args.trace)

    workdir = WORK_ROOT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = layers.Tracer() if traced else None
        if tracer:
            tracer.install()
            wl.setup()
            tracer.uninstall()
            setup_stats = tracer.stats
            tracer.reset()
        else:
            wl.setup()
        run = Run(wl, tracer, lambda: run_probe(args.workload, args.seed, traced))
        run.warm_up()
        run.timed(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    ref_digest = workloads.digest(run.refs) if None not in run.refs else "none"
    correct = run.failed == 0 and not run.problems
    print(f"env {json.dumps(info, sort_keys=True)}")
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"pool {len(wl.pool)}  ops {run.attempted}")
    print(f"digest {wl.name} sha256 {ref_digest}")
    for problem in run.problems:
        print(f"PROBLEM {problem}")
    fail_frac = (run.failed + run.documented) / run.attempted
    print(f"op_fail_frac {fail_frac:.6g} ratio  ({run.documented} documented "
          f"exit-3 budget errors, {run.failed} failed ops, of {run.attempted})")

    if not traced:
        lat = run.latencies[False]
        setups = sorted(p[0] for p in run.probes)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (run.attempted / run.elapsed, "op/s"),
            "op_p90_ms": (percentile_ms(lat, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"setup probes (s): {' '.join(f'{s:.4f}' for s in setups)}; "
              f"latency samples: {len(lat)}")
        # Printed, not a JSON metric: op times on a shared host are bimodal
        # (fast and slow CPU states) and the median jumps between the modes
        # as their shares drift, while p90 stays in the slow mode.
        print(f"op_p50_ms {percentile_ms(lat, 50):.6f} ms")
    else:
        covered = [run.traced_outputs.get(i) for i in range(len(wl.pool))]
        traced_digest = workloads.digest(covered) if None not in covered else "none"
        print(f"digest {wl.name} traced sha256 {traced_digest}")
        if traced_digest != ref_digest:
            correct = False
            print("PROBLEM traced outputs differ from the untraced ones")
        for name in tracer.missing:
            print(f"FLAG {name}: not found in the program (renamed or removed?)")
        unreached = [name for name in wl.expected
                     if tracer.stats[name].calls + setup_stats[name].calls == 0]
        for name in unreached:
            print(f"FLAG {name}: no call on {wl.name}, which should reach it "
                  f"(renamed or removed?); its figures read 0")
        metrics = tracer.layer_metrics(run.traced_ops)
        metrics["codec.refine_model.ms"] = (setup_stats["codec.refine_model"].total_ns / 1e6, "ms/run")
        matched, compared = run.oracle
        metrics["planner.oracle_match_frac"] = (matched / compared if compared else 0.0, "ratio")
        imports = [layers.parse_importtime(p[1]) for p in run.probes]
        for module in layers.IMPORTED_MODULES:
            values = [d.get(module, 0.0) for d in imports]
            metrics[f"{module}.import_ms"] = (statistics.median(values), "ms")
        metrics["trace.overhead_p50_ms"] = (
            percentile_ms(run.latencies[True], 50) - percentile_ms(run.latencies[False], 50), "ms")
        metrics["trace.unreached_wrappers"] = (float(len(unreached)), "count")
        print(f"traced ops {run.traced_ops}; untraced p50 "
              f"{percentile_ms(run.latencies[False], 50):.3f} ms, traced p50 "
              f"{percentile_ms(run.latencies[True], 50):.3f} ms")

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6f}  {unit}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
