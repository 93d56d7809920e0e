"""Command-line surface: JSON in, JSON or aligned text out.

Exit codes: 0 on success, 2 for validation problems (with a
machine-readable error object), 3 for unsupported formats.  Exact values
serialize as "p/q" strings; this is the bit-exact interchange format.
All defaults can also come from ONION_* environment variables.
"""

from __future__ import annotations

import dataclasses
import functools
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
from .errors import OnionError, UnsupportedFormat
from .scalars import DEFAULT_TOL, EXACT, FLOAT, scalar_is_zero

EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3


def _read_document(input_path):
    try:
        if input_path and input_path != "-":
            with open(input_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise click.exceptions.Exit(_fail("DocumentInvalid", f"bad JSON: {exc}"))


def _fail(error: str, message: str) -> int:
    click.echo(json.dumps({"error": error, "message": message}))
    return EXIT_UNSUPPORTED if error == "UnsupportedFormat" else EXIT_VALIDATION


def _emit(data: dict, output: str):
    if output == "json":
        click.echo(json.dumps(data, indent=2))
        return
    width = max(len(str(k)) for k in data)
    for key, value in data.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        click.echo(f"{key:<{width}}  {value}")


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except UnsupportedFormat as exc:
            raise SystemExit(_fail("UnsupportedFormat", str(exc)))
        except OnionError as exc:
            raise SystemExit(_fail(type(exc).__name__, str(exc)))

    return wrapper


input_option = click.option("--input", "input_path", default="-", envvar="ONION_INPUT",
                            help="Input document path, '-' for stdin.")
output_option = click.option("--output", default="json", envvar="ONION_OUTPUT",
                             type=click.Choice(["json", "text"]), help="Report format.")
# a click callback runs while options are parsed, outside the command's own handler
_checked_tol = handles_errors(lambda _ctx, _param, value: tensor_mod.check_tol(value))
tol_option = click.option("--tol", default=DEFAULT_TOL, envvar="ONION_TOL", type=float,
                          callback=_checked_tol, help="Relative float zero-test tolerance.")


@click.group()
def main():
    """Hyperdeterminants and onion classification of small state tensors."""


@main.command("classify")
@input_option
@output_option
@tol_option
@handles_errors
def cmd_classify(input_path, output, tol):
    """Classify a state document into its onion class."""
    state = parse_state_document(_read_document(input_path))
    label = classify(state, tol)
    _emit(
        {
            "family": label.family,
            "name": label.name,
            "onion_level": label.onion_level,
            "local_ranks": list(label.local_ranks),
            "diagnostics": jsonify(label.diagnostics),
        },
        output,
    )


@main.command("hyperdet")
@input_option
@output_option
@tol_option
@handles_errors
def cmd_hyperdet(input_path, output, tol):
    """Evaluate the hyperdeterminant of a state document."""
    state = parse_state_document(_read_document(input_path))
    result = hyperdet(state)
    report = {
        "defined": result.defined,
        "value": scalar_json(result.value),
        "degree": result.degree,
        "format": list(result.format),
    }
    # near zero: inside classify's zero band or the decade above it
    if state.field_tag == FLOAT and state.format == (2, 2, 2, 2) and scalar_is_zero(
        result.value, tensor_mod.det_scale(state, result.degree), 10 * tol
    ):
        report["warning"] = (
            "degree-24 float evaluation is ill-conditioned near zero; use exact mode"
        )
    _emit(report, output)


@main.command("invariants")
@input_option
@output_option
@tol_option
@handles_errors
def cmd_invariants(input_path, output, tol):
    """Report ranks, separability, hyperdeterminant, and measures."""
    state = parse_state_document(_read_document(input_path))
    report = {
        "format": list(state.format),
        "mode": state.field_tag,
        "local_ranks": list(tensor_mod.local_ranks(state, tol)),
        "separability": [list(b) for b in tensor_mod.separability_pattern(state, tol)],
    }
    try:
        result = hyperdet(state)
        report["hyperdet"] = {
            "defined": result.defined,
            "value": scalar_json(result.value),
            "degree": result.degree,
        }
    except UnsupportedFormat:
        report["hyperdet"] = None
    if state.format == (2, 2):
        key = "concurrence" if state.field_tag == FLOAT else "concurrence_squared_x4"
        report[key] = scalar_json(concurrence(state))
    if state.format == (2, 2, 2):
        key = "three_tangle" if state.field_tag == FLOAT else "three_tangle_squared_x16"
        report[key] = scalar_json(three_tangle(state))
    _emit(report, output)


@main.command("canonicalize")
@input_option
@output_option
@tol_option
@handles_errors
def cmd_canonicalize(input_path, output, tol):
    """Local operators carrying a 3-qubit state to its representative."""
    state = parse_state_document(_read_document(input_path))
    ops, label = canonicalize_3qubit(state, tol)
    operators = [
        [[scalar_json(entry) for entry in row] for row in mat] for mat in ops.operators
    ]
    _emit(
        {
            "name": label.name,
            "onion_level": label.onion_level,
            "operators": operators,
            "representative": state_document(representative(label)),
        },
        output,
    )


@main.command("reachable")
@click.argument("source")
@click.argument("target")
@click.option("--family", default="qubit3", envvar="ONION_FAMILY",
              type=click.Choice(["qubit3", "format322", "qubit4", "bipartite"]))
@output_option
@handles_errors
def cmd_reachable(source, target, family, output):
    """Whether noninvertible local operations map SOURCE into TARGET."""
    verdict = reachable(source, target, family=family)
    _emit({"from": source, "to": target, "family": family, "reachable": verdict}, output)


@main.command("oracle")
@input_option
@output_option
@click.option("--restarts", default=64, envvar="ONION_RESTARTS", type=int)
@click.option("--seed", default=None, envvar="ONION_SEED", type=int,
              help="Search seed; derived and reported when omitted.")
@click.option("--tol", default=1e-8, envvar="ONION_ORACLE_TOL", type=float, callback=_checked_tol,
              help="Residual acceptance tolerance.")
@handles_errors
def cmd_oracle(input_path, output, restarts, seed, tol):
    """Search for a critical point witnessing a zero hyperdeterminant."""
    state = parse_state_document(_read_document(input_path))
    if seed is None:
        import secrets
        seed = secrets.randbits(32)
    result = oracle_mod.critical_point_search(state, restarts=restarts, tol=tol, seed=seed)
    report = {
        "found": result.found,
        "residual": result.residual,
        "restarts_used": result.restarts_used,
        "seed": seed,
        "witness": None,
    }
    if result.witness is not None:
        report["witness"] = [
            [[v.real, v.imag] for v in factor] for factor in result.witness.factors
        ]
    try:
        formula = hyperdet(state)
        report["formula_value"] = scalar_json(formula.value)
        report["formula_defined"] = formula.defined
    except UnsupportedFormat:
        pass
    _emit(report, output)


@main.command("random")
@click.argument("format_spec")
@click.option("--seed", default=None, envvar="ONION_SEED", type=int)
@click.option("--mode", default=FLOAT, envvar="ONION_MODE", type=click.Choice([EXACT, FLOAT]))
@output_option
@handles_errors
def cmd_random(format_spec, seed, mode, output):
    """Emit a random state document for a format like 2x2x2."""
    try:
        fmt = [int(part) for part in format_spec.replace(",", "x").split("x")]
    except ValueError:
        raise SystemExit(_fail("DocumentInvalid", f"cannot parse format {format_spec!r}"))
    if seed is None:
        import secrets
        seed = secrets.randbits(32)
    if mode == FLOAT:
        state = tensor_mod.random_state(fmt, seed)
    else:
        state = oracle_mod.random_rational_state(fmt, seed)
    doc = state_document(state)
    doc["seed"] = seed
    _emit(doc, output)


@main.command("mixed")
@input_option
@output_option
@tol_option
@handles_errors
def cmd_mixed(input_path, output, tol):
    """Ladder class of an explicit mixed-state decomposition (upper bound)."""
    ens = parse_ensemble_document(_read_document(input_path))
    ladder = mixed_mod.ensemble_upper_class(ens, tol)
    _emit(
        {
            "ladder_class": ladder.name,
            "bound_kind": ladder.bound_kind,
            "members": len(ens.members),
        },
        output,
    )


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
