"""Closed-loop measurement: one caller, one thread, each op after the last returns.

``measure`` draws inputs from the seed, times each op's pipeline, checks
every output and adds it to a running ``Tally``.  Metrics are computed
from the tally: goodput over the time the caller spent inside ops (input
generation, document building, checks and reference loops left out),
latencies over the ops that passed, and failures over every op attempted.
``census`` takes the inputs of the package's known defects through the
same op, untimed, and counts which still fail.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

import gen
import ops

HERE = os.path.dirname(os.path.abspath(__file__))

# Median of nine fresh interpreters: five left setup_s spreading 0.2-0.3 of
# its median over ten seeds on exact-orbits, nine about 0.1.
SETUP_REPEATS = 9
# Input streams of a seed that the measured ops never use.
WARMUP_STREAM = 1_000_003
CENSUS_STREAM = 2_000_003

# Timings are scaled to the machine speed at which reference_loop() takes
# NOMINAL_REF_S.  On a shared host the same work runs up to 1.7x slower in
# some minutes than in others; the loop, timed next to the ops, slows with it.
NOMINAL_REF_S = 0.004
# Probing every 0.05 s rather than 0.2 s halved float-orbits' run-to-run
# spread of goodput and median latency over ten seeds.
PROBE_EVERY_S = 0.05


def _same(inp):
    return inp


@dataclass(frozen=True)
class Workload:
    name: str
    deck: list
    run: object           # the timed op, called with prepare(input)
    check: object
    tamper: object
    # fixed so that baseline runs keep about ten or more samples beyond it, and
    # inside a stratum: on a deck whose slowest stratum was two slots of ten,
    # p80 sat on the step below it and spread 0.19 over ten seeds
    tail_pct: float
    traced_ops: int       # ops run once plain and once traced in a --trace 1 run
    warmup_ops: int       # untimed ops first, so lazy set-up in every path is done
    prepare: object = _same   # untimed: turns the input into what the op consumes
    defects: list = field(default_factory=list)  # (family, stratum) of each known-defect input


WORKLOADS = {
    w.name: w for w in (
        Workload("exact-orbits", gen.orbit_deck("exact"),
                 ops.run_orbit, ops.check_orbit, ops.tamper_orbit, 99.0, 4 * 22, 22),
        Workload("float-orbits", gen.orbit_deck("float"),
                 ops.run_orbit, ops.check_orbit, ops.tamper_orbit, 99.9, 40 * 15, 15,
                 defects=gen.DEFECTS["float-orbits"]),
        Workload("oracle-verdicts", gen.oracle_deck(),
                 ops.run_oracle, ops.check_oracle, ops.tamper_oracle, 84.0, 10, 1,
                 defects=gen.DEFECTS["oracle-verdicts"]),
        Workload("cli-documents", gen.cli_deck(),
                 ops.run_cli, ops.check_cli, ops.tamper_cli, 80.0, 30, 1, ops.cli_document,
                 gen.DEFECTS["cli-documents"]),
    )
}


def reference_loop() -> float:
    """Seconds taken by a fixed CPU-bound loop that uses none of the package.

    Its mix (Fraction arithmetic, small numpy linear algebra, dict and list
    churn) resembles the workloads', so contention slows it alike.
    """
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1)
    m = np.arange(16, dtype=complex).reshape(4, 4) + 1j
    for _ in range(40):
        np.linalg.svd(m)
        np.einsum("ab,bc->ac", m, m)
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = [i] * 3
    return perf_counter() - start


ERROR_KINDS = ("TypeError", "InterpolationInconsistent", "AllLeadingZero", "ZeroState",
               "DocumentInvalid", "other_exception", "wrong_answer")


class Tally:
    """What a run keeps of its ops: counters, and one float per passed op.

    The float is the op's time in milliseconds, scaled to the nominal
    machine speed and kept per format and mode for the percentiles.  At
    8 bytes a passed op this adds about 0.1 MB to the peak RSS at
    float-orbits' baseline rate, and about 1 MB at ten times that rate.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0          # scaled seconds inside ops
        self.raw_busy = 0.0      # wall-clock seconds inside ops
        self.passed_ms = defaultdict(lambda: array("d"))  # (format, mode) -> scaled ms
        self.checks = Counter()      # (check, passed)
        self.families = Counter()    # failure family, "NEW" outside the known ones
        self.errors = Counter()      # ERROR_KINDS
        self.exit_codes = Counter()  # CLI process exit codes
        self.mix = Counter()         # (key, value) of every attempted op
        self._pending = []           # (format and mode, or None if failed; seconds) not yet scaled

    def add(self, inp, seconds: float, outcome: ops.Outcome, exc_type: str | None):
        s = inp.stratum
        self.attempted += 1
        self.raw_busy += seconds
        degenerate = "n/a" if inp.rep_det is None else str(inp.rep_det == 0).lower()
        for key, value in (("format", gen.fmt_name(s.fmt)), ("class", s.cls), ("mode", s.mode),
                           ("degenerate", degenerate), ("norm", s.norm), ("command", s.cmd)):
            self.mix[key, value] += 1
        for name, ok in outcome.checks.items():
            self.checks[name, ok] += 1
        err = outcome.error
        if self.workload == "cli-documents":
            self.exit_codes[int(err[4:]) if err and err.startswith("exit") else 0] += 1
        if outcome.ok:
            self._pending.append(((gen.fmt_name(s.fmt), s.mode), seconds))
            return
        self._pending.append((None, seconds))
        self.failed += 1
        self.families[ops.known_family(self.workload, inp, outcome) or "NEW"] += 1
        kind = exc_type or ("other_exception" if err else "wrong_answer")
        self.errors[kind if kind in ERROR_KINDS else "other_exception"] += 1

    def scale(self, factor: float):
        """Fix the times of the ops added since the last call at ``factor`` x wall clock."""
        for key, seconds in self._pending:
            self.busy += seconds * factor
            if key is not None:
                self.passed_ms[key].append(seconds * factor * 1000.0)
        self._pending.clear()

    def merge(self, other: Tally):
        self.attempted += other.attempted
        self.failed += other.failed
        self.busy += other.busy
        self.raw_busy += other.raw_busy
        for key, times in other.passed_ms.items():
            self.passed_ms[key].extend(times)
        for mine, theirs in ((self.checks, other.checks), (self.families, other.families),
                             (self.errors, other.errors), (self.exit_codes, other.exit_codes),
                             (self.mix, other.mix)):
            mine.update(theirs)

    def latencies_ms(self, key=None) -> np.ndarray:
        """Scaled times of the passed ops, of one (format, mode) or of all."""
        if key is None:
            parts = list(self.passed_ms.values())
        else:
            parts = [self.passed_ms[key]] if key in self.passed_ms else []
        return np.concatenate([np.frombuffer(a) for a in parts]) if parts else np.zeros(0)


def run_op(wl: Workload, inp, call, tracer=None, tamper=False) -> tuple:
    """Time one op, then check it: (seconds, outcome, exception type).

    Exceptions count as failures, never as skips.
    """
    if tracer is not None:
        tracer.op = inp.extra["k"]
    exc_type = None
    arg = wl.prepare(inp)
    start = perf_counter()
    try:
        out = call(arg)
    except Exception as exc:  # the op's failure is the measurement
        out = None
        exc_type = type(exc).__name__
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.op = -1
    error = exc_type
    checks = {}
    if out is not None:
        if tamper:
            out = wl.tamper(out)
        if wl.name == "cli-documents" and out["code"] != 0:
            error = f"exit{out['code']}"
            exc_type = out.get("exception")
        try:
            checks = wl.check(inp, out)
        except Exception:  # a malformed output is a failed check
            checks = {"check_completed": False}
    checks["no_exception"] = error is None
    return seconds, ops.Outcome(checks, error), exc_type


def inputs(wl: Workload, seed: int, k: int):
    inp = gen.make_input(wl.name, wl.deck, seed, k)
    inp.extra["k"] = k
    return inp


def defect_inputs(wl: Workload, seed: int):
    """(family, input) for each known-defect stratum of the workload."""
    for k, (family, stratum) in enumerate(wl.defects):
        inp = gen.make_input(wl.name, [stratum], seed + CENSUS_STREAM, k)
        inp.extra["k"] = k
        yield family, inp


def census(wl: Workload, seed: int) -> tuple:
    """One untimed op on each known-defect input of the workload.

    Returns the ops' tally and, per family, [ops that fail that way, ops
    run].  A failure of any other kind lands in the tally's "NEW" family.
    """
    tally = Tally(wl.name)
    per_family = {}
    for family, inp in defect_inputs(wl, seed):
        before = tally.families[family]
        tally.add(inp, *run_op(wl, inp, wl.run))
        counts = per_family.setdefault(family, [0, 0])
        counts[0] += tally.families[family] - before
        counts[1] += 1
    tally.scale(1.0)
    return tally, per_family


def warm_up(wl: Workload, seed: int, call=None):
    """Untimed ops from a stream the measured ops never use."""
    for k in range(wl.warmup_ops):
        run_op(wl, inputs(wl, seed + WARMUP_STREAM, k), call or wl.run)


def measure(wl: Workload, seed: int, seconds: float = 0.0, n_ops: int | None = None,
            tamper=False) -> Tally:
    """Run ops k = 0, 1, ...: ``n_ops`` of them, or whole decks for about ``seconds``.

    A timed run stops at the deck boundary nearest its deadline (after at
    least one deck), so every run has the same input mix whatever its speed.
    The reference loop runs after every PROBE_EVERY_S of op time and the ops
    in between are scaled to the nominal machine speed.
    """
    tally = Tally(wl.name)
    deck = len(wl.deck)
    ref = reference_loop()
    pending_s = 0.0
    start = perf_counter()
    k = 0
    while True:
        if n_ops is not None:
            if k == n_ops:
                break
        elif k and k % deck == 0:
            elapsed = perf_counter() - start
            if elapsed + elapsed / (k // deck) / 2 >= seconds:
                break
        inp = inputs(wl, seed, k)
        op_s, outcome, exc_type = run_op(wl, inp, wl.run, tamper=tamper)
        tally.add(inp, op_s, outcome, exc_type)
        pending_s += op_s
        if pending_s >= PROBE_EVERY_S:
            ref = _rescale(tally, ref)
            pending_s = 0.0
        k += 1
    _rescale(tally, ref)
    return tally


def _rescale(tally: Tally, ref_before: float) -> float:
    """Scale the ops timed between two reference runs; returns the later one."""
    ref_after = reference_loop()
    tally.scale(NOMINAL_REF_S / ((ref_before + ref_after) / 2))
    return ref_after


def paired(wl: Workload, seed: int, n: int, call, tracer) -> tuple:
    """Ops 0..n-1, each run untraced and then traced, so both see the same machine state.

    Times stay wall clock.
    """
    plain, traced = Tally(wl.name), Tally(wl.name)
    for k in range(n):
        inp = inputs(wl, seed, k)
        plain.add(inp, *run_op(wl, inp, call))
        with tracer:
            traced.add(inp, *run_op(wl, inp, call, tracer))
    plain.scale(1.0)
    traced.scale(1.0)
    return plain, traced


def inprocess_call(wl: Workload):
    """The op without a new interpreter: CLI documents go through click's CliRunner."""
    if wl.name != "cli-documents":
        return wl.run
    from click.testing import CliRunner
    from onionclass.cli import main
    runner = CliRunner()
    return lambda doc: ops.run_cli_inprocess(doc, runner, main)


# --- metrics -------------------------------------------------------------------


def summarize(wl: Workload, tally: Tally) -> dict:
    """Metrics over scaled times, with the wall-clock goodput beside them."""
    lat = tally.latencies_ms()
    p50, tail = (float(v) for v in np.percentile(lat, [50, wl.tail_pct])) if lat.size else (0.0, 0.0)
    passed = tally.attempted - tally.failed
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "goodput_ops_s": passed / tally.busy if tally.busy > 0 else 0.0,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "tail_pct": wl.tail_pct,
        "tail_beyond": int((lat > tail).sum()),
        "error_rate": tally.failed / tally.attempted if tally.attempted else 0.0,
        "raw_goodput_ops_s": passed / tally.raw_busy if tally.raw_busy > 0 else 0.0,
        "speed_factor": tally.busy / tally.raw_busy if tally.raw_busy > 0 else 1.0,
    }


def check_counts(tally: Tally) -> dict:
    """Per check: [passed, failed]."""
    counts = {}
    for (name, ok), n in tally.checks.items():
        counts.setdefault(name, [0, 0])[0 if ok else 1] += n
    return counts


def mix_shares(tally: Tally) -> dict:
    """Share of attempted ops by format, class, mode, degeneracy and norm band (and command)."""
    shares = {}
    for (key, value), n in sorted(tally.mix.items()):
        if key != "command" or value:
            shares.setdefault(key, {})[value] = round(n / tally.attempted, 4)
    return shares


def fingerprint(wl: Workload, seed: int) -> str:
    """Fingerprint of the first two decks of inputs the seed generates, and its known-defect inputs."""
    timed = (inputs(wl, seed, k) for k in range(2 * len(wl.deck)))
    defects = (inp for _, inp in defect_inputs(wl, seed))
    return gen.fingerprint(itertools.chain(timed, defects))


def peak_rss_mb(wl: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-documents" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_process(cmd, stdin: str = "", repeats: int = SETUP_REPEATS, inner: bool = False) -> tuple:
    """Median seconds of a child process run ``repeats`` times, one at a time.

    Returns (scaled, wall clock process time).  With ``inner`` the scaled
    figure is the time the child prints on its last line of output, not
    its whole run.
    """
    env = ops.cli_env()
    scaled, raw = [], []
    ref = reference_loop()
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env,
                              timeout=ops.CLI_TIMEOUT_S)
        raw.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} failed ({proc.returncode}): {proc.stderr[-500:]}")
        after = reference_loop()
        seconds = float(proc.stdout.strip().splitlines()[-1]) if inner else raw[-1]
        scaled.append(seconds * NOMINAL_REF_S / ((ref + after) / 2))
        ref = after
    return statistics.median(scaled), statistics.median(raw)


def setup_seconds(wl: Workload) -> tuple:
    """Time to import the entry module and finish op 0 of seed 0 in a fresh interpreter.

    The CLI workload times the whole ``onionclass.cli`` process, interpreter
    start included; the others time only the import of ``onionclass`` and
    the op, as ``setup_probe.py`` reports them.
    """
    if wl.name == "cli-documents":
        argv, stdin = wl.prepare(inputs(wl, 0, 0))
        return timed_process([sys.executable, "-m", "onionclass.cli", *argv], stdin)
    return timed_process([sys.executable, os.path.join(HERE, "setup_probe.py"), wl.name], inner=True)
