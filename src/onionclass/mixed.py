"""Mixed-state ladder classification from one explicit decomposition.

A convex decomposition of a 3-qubit density matrix is classified by the
outermost pure class it uses.  The answer depends on the decomposition, so
it is an upper bound on the decomposition-minimized class; two ensembles
with the same density matrix can legitimately get different answers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .classify import classify
from .errors import EmptyEnsemble, SizeMismatch, UnsupportedFormat
from .scalars import DEFAULT_TOL, EXACT, GaussianRational, as_float
from .tensor import check_tol, norm_squared

LADDER_ORDER = ("separable-class", "biseparable-class", "W-class", "GHZ-class")

_PURE_TO_LADDER = {
    "GHZ": "GHZ-class",
    "W": "W-class",
    "B1": "biseparable-class",
    "B2": "biseparable-class",
    "B3": "biseparable-class",
    "S": "separable-class",
}


@dataclass(frozen=True)
class LadderClass:
    """Totally ordered mixed-state class; always an upper bound."""

    name: str
    bound_kind: str = "upper-bound"

    @property
    def rank(self) -> int:
        return LADDER_ORDER.index(self.name)

    def __le__(self, other: "LadderClass") -> bool:
        return self.rank <= other.rank


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure states of one common format; weights sum to 1."""

    members: tuple


def ensemble(members, tol: float = DEFAULT_TOL) -> Ensemble:
    """Validate (weight, state) pairs: positive weights, uniform format; DocumentInvalid for a bad `tol`."""
    check_tol(tol)
    packed = []
    for weight, state in members:
        if isinstance(weight, (int, Fraction)):
            weight = Fraction(weight)
        else:
            weight = float(weight)
        if not 0 < weight < math.inf:
            raise SizeMismatch("ensemble weights must be finite and positive")
        packed.append((weight, state))
    if not packed:
        raise EmptyEnsemble("an ensemble needs at least one member")
    fmt = packed[0][1].format
    if any(state.format != fmt for _, state in packed):
        raise SizeMismatch("ensemble members must share one format")
    # Fraction(float) is exact, so the sum neither rounds nor overflows, and comparing it with tol stays exact
    total = sum(Fraction(w) for w, _ in packed)
    if all(isinstance(w, Fraction) for w, _ in packed):
        if total != 1:
            try:
                shown = str(total)
            except ValueError:  # its terms pass the int-to-str digit limit
                shown = f"about 10**{math.log10(total.numerator) - math.log10(total.denominator):.2f}"
            raise SizeMismatch(f"weights must sum to 1 exactly, got {shown}")
    elif abs(total - 1) > tol:
        shown = float(total) if total <= sys.float_info.max else "more than the largest float"
        raise SizeMismatch(f"weights must sum to 1, got {shown}")
    return Ensemble(tuple(packed))


def ensemble_upper_class(ens: Ensemble, tol: float = DEFAULT_TOL) -> LadderClass:
    """Maximal ladder class over the members of the given decomposition.

    Only the 3-qubit ladder is defined; each member classifies to a pure
    class which maps onto separable < biseparable < W < GHZ, and the
    maximum is returned.  A tolerance that is not finite and nonnegative
    raises DocumentInvalid.
    """
    check_tol(tol)
    if not ens.members:
        raise EmptyEnsemble("an ensemble needs at least one member")
    fmt = ens.members[0][1].format
    if fmt != (2, 2, 2):
        raise UnsupportedFormat(f"the mixed ladder is defined for (2, 2, 2) only, got {fmt}")
    return max((LadderClass(_PURE_TO_LADDER[classify(state, tol).name]) for _, state in ens.members),
               key=lambda ladder: ladder.rank)


def density_matrix(ens: Ensemble):
    """rho = sum of weighted projectors onto the normalized members.

    Exact ensembles (rational weights, exact states) give an exact
    Gaussian-rational matrix; otherwise a complex numpy array.  Members
    are normalized through the projector division, so no square roots
    enter.
    """
    if not ens.members:
        raise EmptyEnsemble("an ensemble needs at least one member")
    exact = all(
        isinstance(w, Fraction) and state.field_tag == EXACT for w, state in ens.members
    )
    dim = ens.members[0][1].size
    if exact:
        rho = [[GaussianRational(0) for _ in range(dim)] for _ in range(dim)]
        for weight, state in ens.members:
            n2 = norm_squared(state)
            for i in range(dim):
                if not state.amplitudes[i]:
                    continue
                for j in range(dim):
                    rho[i][j] = rho[i][j] + (
                        state.amplitudes[i] * state.amplitudes[j].conjugate() * weight / n2
                    )
        return rho
    import numpy as np
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, state in ens.members:
        vec = np.array([as_float(a) for a in state.amplitudes])
        vec = vec / np.linalg.norm(vec)
        rho += float(weight) * np.outer(vec, vec.conj())
    return rho
