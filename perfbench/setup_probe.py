"""Set-up probe: import the entry module in a fresh interpreter, then finish one warm-up op.

Usage: python3 perfbench/setup_probe.py WORKLOAD   (with src/ on PYTHONPATH)
Prints the seconds spent importing ``onionclass`` and running op 0 of seed
0.  The harness's own imports and the input's generation and check fall
outside both intervals.  Exits 1 when the op fails.
"""

import sys
from time import perf_counter

start = perf_counter()
import onionclass  # noqa: E402,F401  imported first, as a user would, before any harness module
import_s = perf_counter() - start

import bench  # noqa: E402

wl = bench.WORKLOADS[sys.argv[1]]
op_s, outcome, _ = bench.run_op(wl, bench.inputs(wl, 0, 0), wl.run)
print(f"{import_s + op_s:.9f}")
sys.exit(0 if outcome.ok else 1)
