"""onionclass benchmark: four closed-loop workloads with checked outputs.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-orbits, float-orbits, oracle-verdicts, cli-documents (see
BENCHMARK.json for why each exists).  One caller on one thread runs each op
after the previous one returns; BLAS and OpenMP are pinned to one thread.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans wrapped around the package's public
functions, and the tracing overhead.  Readable lines come first; the last
line of standard output is one JSON object with the result.  The package
is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import os

# must precede the first numpy import, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")

FORMATS = ("2x2", "3x3", "2x2x2", "3x2x2", "2x2x2x2")
DEFECT_FAMILIES = ("float-322-mixed-field-TypeError", "float-2x2x2x2-generic-labelled-DEGENERATE4",
                   "oracle-misses-degenerate-push", "random-document-seed-key-rejected")

E2E_UNITS = {"goodput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def end_to_end(wl, seed: int, seconds: float):
    import bench
    bench.warm_up(wl, seed)
    tally = bench.measure(wl, seed, seconds)
    s = bench.summarize(wl, tally)
    setup, raw_setup = bench.setup_seconds(wl)
    metrics = {
        "goodput_ops_s": s["goodput_ops_s"],
        "latency_p50_ms": s["latency_p50_ms"],
        "latency_tail_ms": s["latency_tail_ms"],
        "setup_s": setup,
        "peak_rss_mb": bench.peak_rss_mb(wl),
    }
    lines = [f"metric {k} = {v:.6g} {E2E_UNITS[k]}" for k, v in metrics.items()]
    lines[0] += f"  (wall clock {s['raw_goodput_ops_s']:.6g}; passed ops per second inside ops)"
    lines[2] += f"  (p{s['tail_pct']:g} of {s['attempted'] - s['failed']} passed ops, {s['tail_beyond']} beyond it)"
    lines[3] += f"  (wall clock of the whole process {raw_setup:.6g})"
    lines.append(f"error_rate {s['error_rate']:.6g} = {s['failed']}/{s['attempted']} timed ops")
    lines.append(f"times scaled to nominal machine speed; this run's speed factor {s['speed_factor']:.4g}")
    return tally, metrics, lines


def per_layer(wl, seed: int, seconds: float, defects, per_family):
    import bench
    from spans import COUNTER_NAMES, Tracer
    bench.warm_up(wl, seed)
    cli = wl.name == "cli-documents"
    tally = bench.measure(wl, seed, seconds / 2)
    inproc = bench.inprocess_call(wl)
    m = dict.fromkeys(("cli.interpreter_ms", "cli.import_ms", "cli.process_ms", "cli.compute_ms"), 0.0)
    if cli:
        bare = bench.timed_process([sys.executable, "-c", "pass"], repeats=3)[0] * 1000
        with_cli = bench.timed_process([sys.executable, "-c", "import onionclass.cli"], repeats=3)[0] * 1000
        m["cli.interpreter_ms"] = bare
        m["cli.import_ms"] = with_cli - bare
        m["cli.process_ms"] = _median(tally.latencies_ms())
        bench.warm_up(wl, seed, inproc)
    for code in range(4):
        m[f"cli.exit_code.{code}"] = tally.exit_codes[code] + defects.exit_codes[code]

    tracer = Tracer()
    plain, traced = bench.paired(wl, seed, wl.traced_ops, inproc, tracer)
    if cli:
        m["cli.compute_ms"] = _median(plain.latencies_ms())
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.tsv")
    tracer.write(span_file)
    for name, (calls, self_s) in tracer.summary().items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_ms"] = self_s * 1000.0
    for name in COUNTER_NAMES:
        m[f"{name}.calls"] = tracer.counts[name]
    m["hyperdet.lift_retries"] = tracer.lift_retries
    agree, disagree = tally.checks["oracle_verdict", True], tally.checks["oracle_verdict", False]
    m["oracle.verdict_agree_frac"] = agree / (agree + disagree) if agree + disagree else 0.0

    for fmt in FORMATS:
        for mode in ("exact", "float"):
            m[f"op.{fmt}.{mode}.p50_ms"] = _median(tally.latencies_ms((fmt, mode)))
    for kind in bench.ERROR_KINDS:
        m[f"errors.{kind}"] = tally.errors[kind] + defects.errors[kind]
    for family in DEFECT_FAMILIES:
        m[f"defects.{family}"] = per_family.get(family, [0, 0])[0]

    untraced = bench.summarize(wl, plain)["raw_goodput_ops_s"]
    traced_goodput = bench.summarize(wl, traced)["raw_goodput_ops_s"]
    m["trace.goodput_ratio"] = traced_goodput / untraced if untraced else 0.0
    lines = [f"tracing overhead: traced goodput {traced_goodput:.6g} ops/s against untraced "
             f"{untraced:.6g} ops/s, wall clock, each of {traced.attempted} ops run once each way "
             f"(ratio {m['trace.goodput_ratio']:.4g})",
             f"spans: {len(tracer.spans)} written to {os.path.relpath(span_file)}",
             "op medians and CLI process times (passed ops) scaled to nominal machine speed; "
             "span self times and cli.compute_ms wall clock",
             "exit codes and errors count the timed and the known-defect ops"]
    lines += [f"layer {k} = {v:.6g}" for k, v in m.items()]
    for part in (plain, traced):
        tally.merge(part)
    return tally, m, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "onionclass", "__init__.py")):
        print(f"error: no onionclass package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = bench.WORKLOADS[args.workload]

    defects, per_family = bench.census(wl, args.seed)
    if args.trace:
        tally, metrics, lines = per_layer(wl, args.seed, args.seconds, defects, per_family)
    else:
        tally, metrics, lines = end_to_end(wl, args.seed, args.seconds)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"inputs fingerprint {bench.fingerprint(wl, args.seed)} (first {2 * len(wl.deck)} ops of the seed and its {len(wl.defects)} known-defect inputs)")
    for key, shares in bench.mix_shares(tally).items():
        print(f"mix {key}: " + ", ".join(f"{k}={v:g}" for k, v in shares.items()))
    for line in lines:
        print(line)
    for name, (ok, bad) in sorted(bench.check_counts(tally).items()):
        print(f"check {name}: pass {ok} fail {bad}")
    for family, count in sorted(tally.families.items()):
        print(f"failures {family}: {count}")
    for family, (bad, n) in per_family.items():
        print(f"known defect {family}: {bad} of {n} untimed ops fail that way")
    if defects.families["NEW"]:
        print(f"known-defect inputs failing another way: {defects.families['NEW']}")
    result = {
        "correct": tally.failed == 0 and not defects.families["NEW"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
