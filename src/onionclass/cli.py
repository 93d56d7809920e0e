"""Command-line surface: JSON in, JSON or aligned text out.

Exit codes: 0 on success, 2 for validation problems, unreadable input and
usage errors, 3 for unsupported formats; 2 and 3 come with a
machine-readable error object.  Exact values serialize as "p/q" strings;
this is the bit-exact interchange format.  All defaults can also come
from ONION_* environment variables.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from . import mixed as mixed_mod
from . import oracle as oracle_mod
from . import tensor as tensor_mod
from .classify import canonicalize_3qubit, classify, reachable, representative
from .hyperdet import concurrence, hyperdet, three_tangle
from .documents import (
    jsonify,
    parse_ensemble_document,
    parse_state_document,
    scalar_json,
    state_document,
)
from .errors import DocumentInvalid, OnionError, UnsupportedFormat
from .scalars import DEFAULT_TOL, EXACT, FLOAT

EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3


def _read_document(input_path):
    try:
        if input_path and input_path != "-":
            with open(input_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentInvalid(f"unreadable input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentInvalid(f"bad JSON: {exc}") from exc
    except ValueError as exc:  # the only other ValueError json raises: an integer past the digit limit
        raise DocumentInvalid(
            f"bad JSON: integers are limited to {sys.get_int_max_str_digits()} digits") from exc


def _emit(data: dict, output: str):
    if output == "json":
        click.echo(json.dumps(data, indent=2))
        return
    width = max(len(str(k)) for k in data)
    for key, value in data.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        click.echo(f"{key:<{width}}  {value}")


class _ErrorBoundary(click.Group):
    """The one error handler: an OnionError or usage error prints {"error", "message"}.

    It covers the group's own arguments and each command, option callbacks included.
    Exit 3 for UnsupportedFormat, 2 otherwise.
    """

    def make_context(self, *args, **kwargs):
        return self._guarded(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._guarded(super().invoke, ctx)

    @staticmethod
    def _guarded(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except getattr(click.exceptions, "NoArgsIsHelpError", ()):  # a bare call's help text
            raise
        except (OnionError, click.UsageError) as exc:
            usage = isinstance(exc, click.UsageError)
            click.echo(json.dumps({"error": "UsageError" if usage else type(exc).__name__,
                                   "message": exc.format_message() if usage else str(exc)}))
            raise SystemExit(EXIT_UNSUPPORTED if isinstance(exc, UnsupportedFormat) else EXIT_VALIDATION)


def _drawn_seed(_ctx, _param, seed):
    """A click callback: the given seed, or a fresh 32-bit draw to report when none was given."""
    if seed is None:
        import secrets
        seed = secrets.randbits(32)
    return seed


def _checked_tol(_ctx, _param, value):
    return tensor_mod.check_tol(value)


output_option = click.option("--output", default="json", envvar="ONION_OUTPUT",
                             type=click.Choice(["json", "text"]), help="Report format.")
tol_option = click.option("--tol", default=DEFAULT_TOL, envvar="ONION_TOL", type=float,
                          callback=_checked_tol, help="Relative float zero-test tolerance.")


@click.group(cls=_ErrorBoundary)
def main():
    """Hyperdeterminants and onion classification of small state tensors."""


def document_command(name: str, *options, ensemble: bool = False):
    """Register report(state or ensemble, **options) -> dict as command `name`, its docstring the help.

    The command reads one JSON document from --input, parses it as a state
    (an ensemble when `ensemble` is set), emits the report in --output form,
    and takes `options`, or --tol when none are given.
    """
    def register(report):
        def command(input_path, output, **opts):
            doc = _read_document(input_path)
            parsed = parse_ensemble_document(doc) if ensemble else parse_state_document(doc)
            # exact results print in full; documents bound the length of input literals
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                _emit(report(parsed, **opts), output)
            finally:
                sys.set_int_max_str_digits(limit)

        # click lists options in decorator order, so they are applied last to first
        for option in reversed((
            click.option("--input", "input_path", default="-", envvar="ONION_INPUT",
                         help="Input document path, '-' for stdin."),
            output_option,
            *(options or (tol_option,)),
        )):
            command = option(command)
        main.command(name, help=report.__doc__)(command)
        return report

    return register


def _hyperdet_fields(result) -> dict:
    return {"defined": result.defined, "value": scalar_json(result.value), "degree": result.degree}


@document_command("classify")
def classify_report(state, tol):
    """Classify a state document into its onion class."""
    label = classify(state, tol)
    return {
        "family": label.family,
        "name": label.name,
        "onion_level": label.onion_level,
        "local_ranks": list(label.local_ranks),
        "diagnostics": jsonify(label.diagnostics),
    }


@document_command("hyperdet")
def hyperdet_report(state, tol):
    """Evaluate the hyperdeterminant of a state document."""
    result = hyperdet(state)
    report = {**_hyperdet_fields(result), "format": list(result.format)}
    decide = tensor_mod.Decisions(tol)
    # near zero: zero at tol, or in the decade above it, where classify's boundary band warns
    if state.field_tag == FLOAT and state.format == (2, 2, 2, 2) and (
        decide.invariant_is_zero(state, result.value, result.degree) or decide.warn
    ):
        report["warning"] = "degree-24 float evaluation is ill-conditioned near zero; use exact mode"
    return report


@document_command("invariants")
def invariants_report(state, tol):
    """Report ranks, separability, hyperdeterminant, and measures."""
    decide = tensor_mod.Decisions(tol)
    ranks = decide.local_ranks(state)
    blocks = tensor_mod.separability_blocks(state.n_parties, decide.cut_ranks(state, ranks))
    report = {
        "format": list(state.format),
        "mode": state.field_tag,
        "local_ranks": list(ranks),
        "separability": [list(b) for b in blocks],
    }
    try:
        report["hyperdet"] = _hyperdet_fields(hyperdet(state))
    except UnsupportedFormat:
        report["hyperdet"] = None
    if state.format == (2, 2):
        key = "concurrence" if state.field_tag == FLOAT else "concurrence_squared_x4"
        report[key] = scalar_json(concurrence(state))
    if state.format == (2, 2, 2):
        key = "three_tangle" if state.field_tag == FLOAT else "three_tangle_squared_x16"
        report[key] = scalar_json(three_tangle(state))
    return report


@document_command("canonicalize")
def canonicalize_report(state, tol):
    """Local operators carrying a 3-qubit state to its representative."""
    ops, label = canonicalize_3qubit(state, tol)
    return {
        "name": label.name,
        "onion_level": label.onion_level,
        "operators": [[[scalar_json(entry) for entry in row] for row in mat] for mat in ops.operators],
        "representative": state_document(representative(label)),
    }


@document_command(
    "oracle",
    click.option("--restarts", default=64, envvar="ONION_RESTARTS", type=int),
    click.option("--seed", default=None, envvar="ONION_SEED", type=int, callback=_drawn_seed,
                 help="Search seed; derived and reported when omitted."),
    click.option("--tol", default=1e-8, envvar="ONION_ORACLE_TOL", type=float, callback=_checked_tol,
                 help="Bound on the pairing gradient's norm: FOUND when the residual, its square, is at most tol**2."),
)
def oracle_report(state, restarts, seed, tol):
    """Search for a critical point witnessing a zero hyperdeterminant."""
    result = oracle_mod.critical_point_search(state, restarts=restarts, tol=tol, seed=seed)
    witness = result.witness
    report = {
        "found": result.found,
        "residual": result.residual,
        "restarts_used": result.restarts_used,
        "seed": seed,
        "witness": None if witness is None else [[[v.real, v.imag] for v in f] for f in witness.factors],
    }
    try:
        formula = hyperdet(state)
        report["formula_value"] = scalar_json(formula.value)
        report["formula_defined"] = formula.defined
    except UnsupportedFormat:
        pass
    return report


@document_command("mixed", ensemble=True)
def mixed_report(ens, tol):
    """Ladder class of an explicit mixed-state decomposition (upper bound)."""
    ladder = mixed_mod.ensemble_upper_class(ens, tol)
    return {"ladder_class": ladder.name, "bound_kind": ladder.bound_kind, "members": len(ens.members)}


@main.command("reachable")
@click.argument("source")
@click.argument("target")
@click.option("--family", default="qubit3", envvar="ONION_FAMILY",
              type=click.Choice(["qubit3", "format322", "qubit4", "bipartite"]))
@output_option
def cmd_reachable(source, target, family, output):
    """Whether noninvertible local operations map SOURCE into TARGET."""
    verdict = reachable(source, target, family=family)
    _emit({"from": source, "to": target, "family": family, "reachable": verdict}, output)


@main.command("random")
@click.argument("format_spec")
@click.option("--seed", default=None, envvar="ONION_SEED", type=int, callback=_drawn_seed)
@click.option("--mode", default=FLOAT, envvar="ONION_MODE", type=click.Choice([EXACT, FLOAT]))
@output_option
def cmd_random(format_spec, seed, mode, output):
    """Emit a random state document for a format like 2x2x2."""
    try:
        fmt = [int(part) for part in format_spec.replace(",", "x").split("x")]
    except ValueError:
        raise DocumentInvalid(f"cannot parse format {format_spec!r}") from None
    if mode == FLOAT:
        state = tensor_mod.random_state(fmt, seed)
    else:
        state = oracle_mod.random_rational_state(fmt, seed)
    doc = state_document(state)
    doc["seed"] = seed
    _emit(doc, output)


@main.command("selftest")
@click.option("--level", default="quick", type=click.Choice(["quick", "full"]),
              envvar="ONION_SELFTEST_LEVEL")
@click.option("--json", "as_json", is_flag=True, help="Print one JSON object instead of text lines.")
def cmd_selftest(level, as_json):
    """Run the acceptance battery and print one line per criterion, with its wall time.

    With --json the report is one object: the level, the pass count and a
    list of {name, passed, seconds, detail}.  The exit code is 1 when any
    criterion fails, either way.
    """
    from . import selftest as selftest_mod
    results = selftest_mod.run(level)
    passed = sum(res.passed for res in results)
    if as_json:
        report = {"level": level, "passed": passed, "results": [dataclasses.asdict(res) for res in results]}
        click.echo(json.dumps(report, indent=2))
    else:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            click.echo(f"{status}  {res.name} ({res.seconds:.2f} s): {res.detail}")
        click.echo(f"{passed}/{len(results)} criteria passed ({level} level)")
    if passed < len(results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
