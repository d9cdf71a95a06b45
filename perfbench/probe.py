"""Set-up probe: one fresh interpreter, from start to ready for op 1.

    python3 perfbench/probe.py <workload> <seed>

Imports ``v2vsim.cli`` and does the workload's program-side one-time work
(only codec_stream has any: the generic entropy model and its refinement).
Prints the ``time.perf_counter()`` reading when ready (a system-wide
monotonic clock, so the parent can subtract its spawn time) and the seconds
spent generating the benchmark's own inputs, which set-up time excludes.
"""

import sys
import time

import env  # noqa: F401  (the thread pinning the timed process runs with)
import v2vsim.cli  # noqa: F401

workload, seed = sys.argv[1], int(sys.argv[2])
excluded = 0.0
if workload == "codec_stream":
    start = time.perf_counter()
    import workloads
    wl = workloads.CodecStream(seed, None)
    excluded = time.perf_counter() - start
    wl.setup()
print(time.perf_counter(), excluded)
