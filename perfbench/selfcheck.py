"""Self-check of the benchmark itself; exits 0 when every check holds.

Usage (from the repository root): python3 perfbench/selfcheck.py

For each workload it runs a few ops, then the same ops with a deliberately
wrong label or value substituted into the output, and requires that every
untampered op passes and every tampered op is counted as failed.  It runs
the known-defect inputs and requires that none fails outside its family,
and it checks that inputs depend only on the seed and that the tracer
leaves the package as it found it.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if not os.path.isfile(os.path.join(SRC, "onionclass", "__init__.py")):
    sys.exit(f"error: no onionclass package under {SRC}")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = SRC

import onionclass as oc  # noqa: E402

import bench  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {"oracle-verdicts": 2, "cli-documents": 3}  # the orbit workloads run one whole deck
SEED = 7


def main() -> int:
    problems = []
    for name, wl in bench.WORKLOADS.items():
        n = TINY.get(name, len(wl.deck))
        plain = bench.measure(wl, SEED, n_ops=n)
        tampered = bench.measure(wl, SEED, n_ops=n, tamper=True)
        defects, per_family = bench.census(wl, SEED)
        print(f"{name}: {n} ops, {plain.attempted - plain.failed} passed; "
              f"tampered error_rate {bench.summarize(wl, tampered)['error_rate']:g}; known defects "
              + (", ".join(f"{f} {bad}/{k}" for f, (bad, k) in per_family.items()) or "none"))
        if plain.attempted != n or tampered.attempted != n:
            problems.append(f"{name}: ops missing")
        if plain.failed:
            problems.append(f"{name}: untampered ops failed: {dict(plain.families)}")
        if tampered.failed != n:
            problems.append(f"{name}: a tampered output passed its checks")
        if defects.families["NEW"]:
            problems.append(f"{name}: known-defect inputs failed outside their families")
        if tampered.checks["hyperdet_value", True] or (
                name.endswith("-orbits") and not tampered.checks["hyperdet_value", False]):
            problems.append(f"{name}: wrong hyperdeterminant values not all caught")
        if bench.fingerprint(wl, SEED) != bench.fingerprint(wl, SEED) or (
                bench.fingerprint(wl, SEED) == bench.fingerprint(wl, SEED + 1)):
            problems.append(f"{name}: inputs do not follow the seed")

    before = (oc.apply_local, oc.classify.__module__, oc.GaussianRational.__mul__)
    tracer = Tracer()
    wl = bench.WORKLOADS["exact-orbits"]
    bench.paired(wl, SEED, 2, wl.run, tracer)
    if (oc.apply_local, oc.classify.__module__, oc.GaussianRational.__mul__) != before:
        problems.append("tracer: package not restored after uninstall")
    summary = tracer.summary()
    if not tracer.spans or summary["tensor.apply_local"][0] == 0 or tracer.counts["scalars.gr_mul"] == 0:
        problems.append("tracer: no spans or counts recorded")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
