"""JSON interchange documents for states, ensembles, and result values.

Exact rationals travel as "p/q" strings so the interchange is bit-exact;
float amplitudes are plain JSON numbers.  Mixing the two encodings inside
one document is rejected.  Amplitude order matches the tensor convention,
last party index fastest.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DocumentInvalid
from .mixed import Ensemble, ensemble
from .scalars import EXACT, FLOAT, GaussianRational, QuadExt, frac_str
from .tensor import StateTensor, new_state


def _parse_fraction(text) -> Fraction:
    if not isinstance(text, str):
        raise DocumentInvalid(f"exact components must be 'p/q' strings, got {text!r}")
    if len(text) > sys.int_info.default_max_str_digits:
        raise DocumentInvalid(f"rational literals are limited to {sys.int_info.default_max_str_digits} characters")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentInvalid(f"bad rational literal {text!r}") from exc


def parse_state_document(doc) -> StateTensor:
    """Build a StateTensor from its JSON document, validating the schema.

    An optional integer "seed" key, as written by the random command, is
    accepted and ignored.
    """
    if not isinstance(doc, dict):
        raise DocumentInvalid("state document must be a JSON object")
    unknown = set(doc) - {"format", "amplitudes", "mode", "seed"}
    if unknown:
        raise DocumentInvalid(f"unknown state document keys {sorted(unknown)}")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DocumentInvalid(f"seed must be an integer, got {seed!r}")
    fmt = doc.get("format")
    amps = doc.get("amplitudes")
    mode = doc.get("mode")
    if mode not in (EXACT, FLOAT):
        raise DocumentInvalid(f"mode must be 'exact' or 'float', got {mode!r}")
    if not isinstance(fmt, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in fmt):
        raise DocumentInvalid("format must be an array of integers")
    if not isinstance(amps, list):
        raise DocumentInvalid("amplitudes must be an array")
    values = []
    for entry in amps:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentInvalid("each amplitude must be a two-element [re, im] array")
        re, im = entry
        if mode == EXACT:
            values.append(GaussianRational(_parse_fraction(re), _parse_fraction(im)))
        else:
            for comp in (re, im):
                if isinstance(comp, bool) or not isinstance(comp, (int, float)):
                    raise DocumentInvalid(f"float components must be JSON numbers, got {comp!r}")
            try:
                values.append(complex(re, im))
            except OverflowError:
                raise DocumentInvalid("a float component is a JSON integer past the float range") from None
    return new_state(fmt, values, mode)


def state_document(state: StateTensor) -> dict:
    """Serialize a StateTensor; exact amplitudes as 'p/q' strings."""
    if state.field_tag == EXACT:
        amps = [[frac_str(a.re), frac_str(a.im)] for a in state.amplitudes]
    else:
        amps = [[a.real, a.imag] for a in state.amplitudes]
    return {"format": list(state.format), "amplitudes": amps, "mode": state.field_tag}


def parse_ensemble_document(doc) -> Ensemble:
    if not isinstance(doc, dict) or "members" not in doc:
        raise DocumentInvalid("ensemble document must be an object with a 'members' array")
    members_doc = doc["members"]
    if not isinstance(members_doc, list) or not members_doc:
        raise DocumentInvalid("'members' must be a nonempty array")
    members = []
    for entry in members_doc:
        if not isinstance(entry, dict) or set(entry) != {"weight", "state"}:
            raise DocumentInvalid("each member needs exactly 'weight' and 'state'")
        weight = entry["weight"]
        if isinstance(weight, str):
            weight = _parse_fraction(weight)
        elif isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise DocumentInvalid(f"weight must be a number or 'p/q' string, got {weight!r}")
        members.append((weight, parse_state_document(entry["state"])))
    return ensemble(members)


def scalar_json(value):
    """JSON form of a result scalar.

    Exact values become strings ("p/q", "p/q+r/si", or the extension form);
    real floats become numbers and complex floats [re, im] pairs.
    """
    if isinstance(value, (GaussianRational, QuadExt)):
        return str(value)
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, complex):
        return value.real if value.imag == 0.0 else [value.real, value.imag]
    return value


def jsonify(value):
    """Recursively convert scalars, tuples, and mappings to JSON-safe data."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return scalar_json(value)
