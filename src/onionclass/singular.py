"""Membership tests for the node and cusp singularities of the dual variety.

Effective criteria exist for the 2x2x2 and 3x2x2 formats: node membership
reduces to rank conditions on flattenings, and cusp membership at the
fiducial product point is a Hessian determinant condition.  Party indices
are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import FORMAT322, ONION_LEVELS, classify
from .errors import NotInSection, WrongFormat
from .scalars import DEFAULT_TOL, scalar_is_zero
from .tensor import StateTensor, cut_rank, det_scale


def node_test_3qubit(state: StateTensor, party: int, tol: float = DEFAULT_TOL) -> bool:
    """Whether the party's local rank drops to 1 (the biseparable closure)."""
    if state.format != (2, 2, 2):
        raise WrongFormat(f"expected format (2, 2, 2), got {state.format}")
    if party not in (0, 1, 2):
        raise WrongFormat(f"party must be 0, 1, or 2, got {party}")
    return cut_rank(state, [party], tol) <= 1


def cusp_test_3qubit(state: StateTensor, tol: float = DEFAULT_TOL) -> bool:
    """Three-qubit cusp locus: the union of the three node components."""
    return any(node_test_3qubit(state, p, tol) for p in range(3))


def node_test_322(state: StateTensor, tol: float = DEFAULT_TOL) -> bool:
    """Singular locus of the 3x2x2 dual: the party-0 flattening loses rank.

    Equivalent to all four 3x3 minors of the flattening vanishing.
    """
    if state.format != (3, 2, 2):
        raise WrongFormat(f"expected format (3, 2, 2), got {state.format}")
    return cut_rank(state, [0], tol) <= 2


@dataclass(frozen=True)
class SectionFlags:
    """Membership in the tangent sections at the fiducial product point."""

    in_dual_section: bool
    in_node_section: bool


def section_flags(state: StateTensor, tol: float = DEFAULT_TOL) -> SectionFlags:
    """Sections of the dual variety tangent at the all-|0> product point.

    The dual section requires a000 = a001 = a010 = a100 = 0; the party-0
    node section additionally requires a011 = a111 = 0.
    """
    if state.format != (2, 2, 2):
        raise WrongFormat(f"expected format (2, 2, 2), got {state.format}")
    a = state.amplitudes
    scale = det_scale(state)
    zero = lambda v: scalar_is_zero(v, scale, tol)
    in_dual = zero(a[0]) and zero(a[1]) and zero(a[2]) and zero(a[4])
    in_node = in_dual and zero(a[3]) and zero(a[7])
    return SectionFlags(in_dual, in_node)


def section_hessian(state: StateTensor, tol: float = DEFAULT_TOL):
    """Quadric part of the pairing at the fiducial tangency point.

    Returns the symmetric 3x3 matrix y and det y = 2 a011 a101 a110; a zero
    determinant places the section point on the cusp locus.
    """
    flags = section_flags(state, tol)
    if not flags.in_dual_section:
        raise NotInSection("state is not in the tangent section at the fiducial point")
    a = state.amplitudes
    zero = a[0] * 0
    y = (
        (zero, a[6], a[5]),
        (a[6], zero, a[3]),
        (a[5], a[3], zero),
    )
    det_y = 2 * (a[3] * a[5] * a[6])
    return y, det_y


@dataclass(frozen=True)
class SingularityReport:
    """Summary of dual-variety and singularity membership for one state."""

    in_dual: bool
    node_flags: dict
    cusp_flag: bool
    hessian_det: object | None


def report(state: StateTensor, tol: float = DEFAULT_TOL) -> SingularityReport:
    """Assemble the full singularity report for a 2x2x2 or 3x2x2 state.

    The answers are read off the onion label: a state is in the dual
    variety when its class lies below the generic one, a 2x2x2 node is a
    local rank of at most 1, a 3x2x2 node a party-0 rank of at most 2, and
    the 3x2x2 cusp holds the classes at or below W.
    """
    if state.format not in ((2, 2, 2), (3, 2, 2)):
        raise WrongFormat(f"no singularity criteria for format {state.format}")
    label = classify(state, tol)
    in_dual = label.onion_level > 0
    if state.format == (2, 2, 2):
        nodes = {p: r <= 1 for p, r in enumerate(label.local_ranks)}
        hess = None
        if section_flags(state, tol).in_dual_section:
            hess = section_hessian(state, tol)[1]
        return SingularityReport(in_dual, nodes, any(nodes.values()), hess)
    cusp = label.onion_level >= ONION_LEVELS[FORMAT322]["W"]
    return SingularityReport(in_dual, {0: label.local_ranks[0] <= 2}, cusp, None)
