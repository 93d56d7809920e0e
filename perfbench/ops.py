"""The four workloads: one timed op per input, and the checks on its output.

An op is one generated input taken through its whole pipeline.  ``run``
is the only part that is timed; ``check`` compares every output with a
reference computed in ``refmath`` and never skips an op.  A failure is
counted whatever its cause.  ``known_family`` names the failures that the
package already had when this benchmark was written; the inputs that show
them run apart from the timed ops (``gen.DEFECTS``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import onionclass as oc
from onionclass.documents import state_document

import gen
import refmath

ORACLE_RESTARTS = 64
ORACLE_TOL = 1e-8
CLI_TIMEOUT_S = 60


@dataclass(slots=True)
class Outcome:
    checks: dict        # check name -> passed
    error: str | None   # exception type, or "exit<code>" for a CLI process

    @property
    def ok(self) -> bool:
        return self.error is None and all(self.checks.values())


def _gaussian_ops(inp):
    return oc.local_operators(
        [[[oc.GaussianRational(re, im) for re, im in row] for row in m] for m in inp.ops])


def _complex_ops(inp):
    return oc.local_operators([[[complex(re, im) for re, im in row] for row in m] for m in inp.ops])


# --- exact-orbits / float-orbits ------------------------------------------------


def run_orbit(inp):
    s = inp.stratum
    if s.mode == "exact":
        rep, ops = oc.exact_state(s.fmt, inp.rep), _gaussian_ops(inp)
    else:
        rep, ops = oc.float_state(s.fmt, inp.rep), _complex_ops(inp)
    pushed = oc.apply_local(rep, ops)
    out = {"pushed": pushed, "label": oc.classify(pushed)}
    if s.fmt in refmath.DEGREES:
        out["hyperdet"] = oc.hyperdet(pushed)
    if s.fmt == (2, 2, 2):
        out["canon"] = oc.canonicalize_3qubit(pushed)
    return out


def _value_ok(value, inp, pushed) -> bool:
    fmt = inp.stratum.fmt
    expected = refmath.pushed_det(fmt, inp.ops, inp.rep_det)
    if inp.stratum.mode == "exact":
        return isinstance(value, oc.GaussianRational) and (value.re, value.im) == expected
    scale = max(abs(complex(a)) for a in pushed.amplitudes)
    return refmath.float_value_ok(complex(value), expected, scale, refmath.DEGREES[fmt])


def _canon_ok(canon, pushed, mode) -> bool:
    ops, label = canon
    terms = gen.CATALOG[(2, 2, 2)].get(label.name)
    if terms is None:
        return False
    rep = gen.dense((2, 2, 2), terms)
    moved = refmath.apply_modes(pushed.amplitudes, (2, 2, 2), ops.operators)
    if mode == "exact":
        return refmath.proportional_exact(moved, rep)
    return refmath.proportional_float([complex(a) for a in moved], rep)


def check_orbit(inp, out) -> dict:
    checks = {"label": out["label"].name == inp.expected}
    if "hyperdet" in out:
        checks["hyperdet_value"] = _value_ok(out["hyperdet"].value, inp, out["pushed"])
    if "canon" in out:
        checks["canonical_ray"] = (out["canon"][1].name == inp.expected
                                   and _canon_ok(out["canon"], out["pushed"], inp.stratum.mode))
    return checks


def tamper_orbit(out):
    """A deliberately wrong label and value, for the self-check."""
    label = out["label"]
    out["label"] = oc.ClassLabel(label.family, label.name + "-WRONG", label.local_ranks, label.onion_level)
    if "hyperdet" in out:
        hd = out["hyperdet"]
        if isinstance(hd.value, complex):
            # shifted by |value| + scale**degree: outside the relative tolerance and the zero band
            scale = max(abs(complex(a)) for a in out["pushed"].amplitudes)
            wrong = hd.value + abs(hd.value) + scale ** hd.degree
        else:
            wrong = hd.value + 1
        out["hyperdet"] = oc.HyperdetResult(hd.defined, wrong, hd.degree, hd.format)
    return out


# --- oracle-verdicts ------------------------------------------------------------


def run_oracle(inp):
    state = oc.float_state(inp.stratum.fmt, [complex(re, im) for re, im in inp.extra["amps"]])
    return oc.critical_point_search(state, restarts=ORACLE_RESTARTS, tol=ORACLE_TOL,
                                    seed=inp.extra["search_seed"])


def check_oracle(inp, out) -> dict:
    return {"oracle_verdict": out.found == gen.is_degenerate(inp)}


def tamper_oracle(out):
    return oc.CriticalSearchResult(not out.found, out.witness, out.residual, out.restarts_used)


# --- cli-documents --------------------------------------------------------------


def _pushed_doc(fmt, rep, ops, mode) -> dict:
    amps = refmath.push_float(rep, fmt, ops)
    if mode == "exact":
        # entries are Gaussian integers far below 2**53, so the float push is exact
        state = oc.exact_state(fmt, [(int(round(a.real)), int(round(a.imag))) for a in amps])
    else:
        state = oc.float_state(fmt, list(amps))
    return state_document(state)


def cli_document(inp) -> tuple:
    """(argv tail, stdin text) for one CLI op; built before the op is timed."""
    s = inp.stratum
    if s.cmd == "random":
        return ["random", "2x2x2", "--seed", str(inp.extra["random_seed"])], ""
    if s.cmd == "mixed":
        members = [{"weight": w, "state": _pushed_doc((2, 2, 2), m["rep"], m["ops"], s.mode)}
                   for w, m in zip(inp.extra["weights"], inp.extra["members"])]
        return ["mixed"], json.dumps({"members": members})
    return [s.cmd], json.dumps(_pushed_doc(s.fmt, inp.rep, inp.ops, s.mode))


def cli_env() -> dict:
    """The environment of a CLI process: this package on the path, no ONION_* defaults."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(oc.__file__)))
    for key in [k for k in env if k.startswith("ONION_")]:
        del env[key]
    return env


def _exception_of(stderr: str) -> str | None:
    """Exception type named on the last line of a Python traceback."""
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    if not lines or ":" not in lines[-1] or lines[-1].startswith(" "):
        return None
    name = lines[-1].split(":", 1)[0].rsplit(".", 1)[-1]
    return name if name.isidentifier() else None


def _cli_process(argv, stdin: str, env) -> dict:
    proc = subprocess.run([sys.executable, "-m", "onionclass.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
    return {"code": proc.returncode, "stdout": proc.stdout,
            "exception": _error_of(proc.returncode, proc.stdout) or _exception_of(proc.stderr)}


def _error_of(code: int, stdout: str) -> str | None:
    """The error name of a documented failure exit (2 or 3)."""
    if code not in (2, 3):
        return None
    try:
        return json.loads(stdout)["error"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def run_cli(doc):
    """One document through one process (two for the random | classify round trip)."""
    argv, stdin = doc
    env = cli_env()
    out = _cli_process(argv, stdin, env)
    if argv[0] == "random" and out["code"] == 0:
        return dict(_cli_process(["classify"], out["stdout"], env), random_doc=out["stdout"])
    return out


def _invoke(runner, main, argv, stdin) -> dict:
    res = runner.invoke(main, argv, input=stdin)
    crashed = res.exception is not None and not isinstance(res.exception, SystemExit)
    return {"code": res.exit_code, "stdout": res.output,
            "exception": type(res.exception).__name__ if crashed else _error_of(res.exit_code, res.output)}


def run_cli_inprocess(doc, runner, main):
    """The same document through click's CliRunner, without a new interpreter."""
    argv, stdin = doc
    out = _invoke(runner, main, argv, stdin)
    if argv[0] == "random" and out["code"] == 0:
        return dict(_invoke(runner, main, ["classify"], out["stdout"]), random_doc=out["stdout"])
    return out


_SCHEMA = {
    "classify": {"family", "name", "onion_level", "local_ranks", "diagnostics"},
    "hyperdet": {"defined", "value", "degree", "format"},
    "invariants": {"format", "mode", "local_ranks", "separability", "hyperdet"},
    "canonicalize": {"name", "onion_level", "operators", "representative"},
    "mixed": {"ladder_class", "bound_kind", "members"},
}


def _cli_value_ok(value, inp) -> bool:
    fmt = inp.stratum.fmt
    expected = refmath.pushed_det(fmt, inp.ops, inp.rep_det)
    if inp.stratum.mode == "exact":
        pair = refmath.parse_exact(value) if isinstance(value, str) else None
        return pair == (Fraction(expected[0]), Fraction(expected[1]))
    amps = refmath.push_float(inp.rep, fmt, inp.ops)
    scale = float(abs(amps).max())
    return refmath.float_value_ok(refmath.scalar_value(value), expected, scale, refmath.DEGREES[fmt])


def _random_class(random_doc: str) -> str:
    """Reference class of a random 3-qubit document: GHZ unless Cayley's Det vanishes."""
    amps = [(complex(re, im)) for re, im in json.loads(random_doc)["amplitudes"]]
    value = refmath.det_of((2, 2, 2), [(a.real, a.imag) for a in amps])
    scale = max(abs(a) for a in amps)
    return "GHZ" if abs(complex(*value)) > 1e-9 * scale**4 else "W"


def _cli_answer_ok(inp, payload, out) -> bool:
    s = inp.stratum
    cmd = "classify" if s.cmd == "random" else s.cmd
    if cmd == "classify":
        expected = _random_class(out["random_doc"]) if s.cmd == "random" else inp.expected
        return payload["name"] == expected
    if cmd == "hyperdet":
        return _cli_value_ok(payload["value"], inp)
    if cmd == "invariants":
        ranks = gen.RANKS[s.fmt][s.cls] if s.fmt in gen.RANKS else (int(s.cls[1:]),) * 2
        return tuple(payload["local_ranks"]) == ranks and _cli_value_ok(payload["hyperdet"]["value"], inp)
    if cmd == "canonicalize":
        if payload["name"] != inp.expected:
            return False
        ops = [[[refmath.scalar_value(x) for x in row] for row in m] for m in payload["operators"]]
        pushed = refmath.push_float(inp.rep, s.fmt, inp.ops)
        moved = refmath.apply_modes(list(pushed), s.fmt, ops)
        return refmath.proportional_float(moved, gen.dense(s.fmt, gen.CATALOG[s.fmt][payload["name"]]))
    return payload["ladder_class"] == inp.expected


def check_cli(inp, out) -> dict:
    checks = {"cli_exit": out["code"] == 0, "cli_schema": False, "cli_answer": False}
    cmd = "classify" if inp.stratum.cmd == "random" else inp.stratum.cmd
    try:
        payload = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return checks
    if not checks["cli_exit"] or not isinstance(payload, dict):
        return checks
    checks["cli_schema"] = _SCHEMA[cmd] <= set(payload)
    if checks["cli_schema"]:
        try:
            checks["cli_answer"] = _cli_answer_ok(inp, payload, out)
        except (KeyError, TypeError, ValueError, IndexError):
            checks["cli_answer"] = False
    return checks


def tamper_cli(out):
    """Wrong class names and an unparseable value, for the self-check."""
    payload = json.loads(out["stdout"]) if out["code"] == 0 else {}
    for key in ("name", "ladder_class"):
        if key in payload:
            payload[key] = str(payload[key]) + "-WRONG"
    if "value" in payload:
        payload["value"] = "not-a-number"
    if isinstance(payload.get("hyperdet"), dict):
        payload["hyperdet"]["value"] = "not-a-number"
    return dict(out, stdout=json.dumps(payload))


# --- failure families present when the benchmark was written --------------------


def known_family(workload: str, inp, outcome: Outcome) -> str | None:
    """Name of the seed defect a failed op belongs to, or None for a new failure."""
    s = inp.stratum
    failed = {name for name, ok in outcome.checks.items() if not ok}
    if s.mode == "float" and s.fmt == (3, 2, 2) and s.cls in gen.NON_GENERIC_322 and (
            outcome.error in ("TypeError", "exit1")):
        return "float-322-mixed-field-TypeError"
    if s.mode == "float" and s.fmt == (2, 2, 2, 2) and inp.expected == "GENERIC4" and (
            outcome.error is None and failed <= {"label", "cli_answer"}):
        return "float-2x2x2x2-generic-labelled-DEGENERATE4"
    if workload == "oracle-verdicts" and gen.is_degenerate(inp) and outcome.error is None:
        return "oracle-misses-degenerate-push"
    if s.cmd == "random" and outcome.error == "exit2":
        return "random-document-seed-key-rejected"
    return None
