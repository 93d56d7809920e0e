"""Numerical dual-variety membership oracle and random identity testing.

Degeneracy of a state tensor is witnessed by a critical point of the
pairing: a product vector at which every first partial derivative
vanishes.  The oracle hunts for one by multi-start projected gradient
descent over the product of unit spheres; a FOUND verdict certifies a
zero hyperdeterminant up to tolerance, while NOT-FOUND is evidence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DocumentInvalid, SizeMismatch, UnsupportedFormat
from .scalars import EXACT, GaussianRational, as_float
from .tensor import ProductVector, StateTensor, check_format, check_seed, check_tol, new_state

if TYPE_CHECKING:
    import numpy as np

_LETTERS = "abcdefgh"

GRAD_TOL = 1e-12
MAX_ITERS = 500
MAX_HALVINGS = 40
ARMIJO = 1e-4


def _tensor_array(state: StateTensor) -> np.ndarray:
    import numpy as np
    arr = np.array([as_float(a) for a in state.amplitudes], dtype=complex)
    return arr.reshape(state.format)


def _gradients(amps: np.ndarray, factors: list[np.ndarray]) -> list[np.ndarray]:
    """Batched first partials of the pairing, one (B, d_j) array per party."""
    import numpy as np
    n = amps.ndim
    subs = _LETTERS[:n]
    grads = []
    for j in range(n):
        operands = [amps]
        script = [subs]
        for p in range(n):
            if p != j:
                operands.append(factors[p])
                script.append(f"z{subs[p]}")
        grads.append(np.einsum(",".join(script) + f"->z{subs[j]}", *operands))
    return grads


def _pair_hessian(amps: np.ndarray, factors: list[np.ndarray], j: int, m: int) -> np.ndarray:
    """Batched matrix of second partials with respect to parties j < m."""
    import numpy as np
    n = amps.ndim
    subs = _LETTERS[:n]
    operands = [amps]
    script = [subs]
    for p in range(n):
        if p not in (j, m):
            operands.append(factors[p])
            script.append(f"z{subs[p]}")
    if len(operands) == 1:
        batch = factors[0].shape[0] if factors else 1
        return np.broadcast_to(amps, (batch,) + amps.shape)
    return np.einsum(",".join(script) + f"->z{subs[j]}{subs[m]}", *operands)


def _residual_and_gradient(amps: np.ndarray, factors: list[np.ndarray]):
    """Residual sum of squared partials and its conjugate gradient per party."""
    import numpy as np
    n = amps.ndim
    grads = _gradients(amps, factors)
    residual = sum((np.abs(g) ** 2).sum(axis=1) for g in grads)
    conj_grad = [np.zeros_like(f) for f in factors]
    for j in range(n):
        for m in range(n):
            if j == m:
                continue
            lo, hi = min(j, m), max(j, m)
            h = _pair_hessian(amps, factors, lo, hi)
            if j < m:
                conj_grad[m] += np.einsum("zjm,zj->zm", h.conj(), grads[j])
            else:
                conj_grad[m] += np.einsum("zmj,zj->zm", h.conj(), grads[j])
    return residual, conj_grad


def _residual_only(amps: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    import numpy as np
    grads = _gradients(amps, factors)
    return sum((np.abs(g) ** 2).sum(axis=1) for g in grads)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    import numpy as np
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def critical_residual(state: StateTensor, x: ProductVector) -> float:
    """Sum of squared pairing partials at x, factors normalized to unit norm.

    The pairing value itself is omitted: contracting any party gradient
    with its own factor reproduces it, so it vanishes whenever the
    gradient does.
    """
    import numpy as np
    if len(x.factors) != state.n_parties:
        raise SizeMismatch("product vector party count does not match the state")
    for p, f in enumerate(x.factors):
        if len(f) != state.format[p]:
            raise SizeMismatch(f"factor {p} has length {len(f)}, expected {state.format[p]}")
    amps = _tensor_array(state)
    factors = [
        _normalize_rows(np.array([[as_float(v) for v in f]], dtype=complex))
        for f in x.factors
    ]
    return float(_residual_only(amps, factors)[0])


@dataclass(frozen=True)
class CriticalSearchResult:
    """Outcome of the multi-start critical-point search."""

    found: bool
    witness: ProductVector | None
    residual: float
    restarts_used: int


def _polish_sweeps(amps: np.ndarray, factors: list[np.ndarray], sweeps: int) -> list[np.ndarray]:
    """Alternating exact per-party minimization of the residual.

    With every other factor fixed, the residual is a Hermitian quadratic
    form in the remaining one plus a constant, so its sphere-constrained
    minimizer is the smallest eigenvector.  Each sweep is monotone; the
    iteration converges far faster than first-order steps near a critical
    point.
    """
    import numpy as np
    n = amps.ndim
    for _ in range(sweeps):
        for j in range(n):
            d = factors[j].shape[1]
            batch = factors[j].shape[0]
            quad = np.zeros((batch, d, d), dtype=complex)
            for m in range(n):
                if m == j:
                    continue
                h = _pair_hessian(amps, factors, min(j, m), max(j, m))
                if j < m:
                    quad += np.einsum("zam,zbm->zab", h.conj(), h)
                else:
                    quad += np.einsum("zma,zmb->zab", h.conj(), h)
            _, vecs = np.linalg.eigh(quad)
            factors[j] = np.ascontiguousarray(vecs[:, :, 0])
    return factors


_STALL_WINDOW = 10
_STALL_FACTOR = 1.0 - 1e-6
_POLISH_SWEEPS = 60


def critical_point_search(
    state: StateTensor,
    restarts: int = 64,
    tol: float = 1e-8,
    seed: int = 0,
    max_iters: int = MAX_ITERS,
) -> CriticalSearchResult:
    """Search for a critical point of the pairing on the sphere product.

    Projected gradient descent with backtracking (initial step 1.0, halving
    factor 0.5) runs from `restarts` independent starts seeded seed+index,
    followed by alternating exact per-party minimization to squeeze out the
    first-order method's slow tail.  All restarts are materialized and the
    best residual selected, so the verdict is deterministic under any
    execution order.  found=True certifies degeneracy up to tol; found=False
    reports the best residual as evidence.  A negative seed, fewer than one
    restart or a tolerance that is not finite and nonnegative raises
    DocumentInvalid; fewer than 2 or more than 8 parties raise
    UnsupportedFormat.
    """
    import numpy as np
    check_seed(seed)
    check_tol(tol)
    if restarts < 1:
        raise DocumentInvalid(f"restarts must be at least 1, got {restarts}")
    if not 2 <= state.n_parties <= len(_LETTERS):
        raise UnsupportedFormat(f"the search needs 2 to {len(_LETTERS)} parties, got {state.n_parties}")
    amps = _tensor_array(state)
    dims = state.format
    n = len(dims)
    factors = []
    for p in range(n):
        factors.append(np.empty((restarts, dims[p]), dtype=complex))
    for idx in range(restarts):
        rng = np.random.default_rng(seed + idx)
        for p in range(n):
            vec = rng.standard_normal(dims[p]) + 1j * rng.standard_normal(dims[p])
            factors[p][idx] = vec / np.linalg.norm(vec)

    residual, conj_grad = _residual_and_gradient(amps, factors)
    active = np.ones(restarts, dtype=bool)
    window = residual.copy()
    for iteration in range(max_iters):
        if not active.any():
            break
        tangents = []
        gnorm2 = np.zeros(restarts)
        for p in range(n):
            radial = np.real(np.sum(factors[p].conj() * conj_grad[p], axis=1, keepdims=True))
            t = conj_grad[p] - factors[p] * radial
            tangents.append(t)
            gnorm2 += (np.abs(t) ** 2).sum(axis=1)
        active &= np.sqrt(gnorm2) >= GRAD_TOL
        if not active.any():
            break
        alpha = np.where(active, 1.0, 0.0)
        accepted = ~active
        trial_factors = [f.copy() for f in factors]
        for _ in range(MAX_HALVINGS):
            pending = active & ~accepted
            if not pending.any():
                break
            candidates = []
            for p in range(n):
                cand = factors[p] - alpha[:, None] * tangents[p]
                candidates.append(_normalize_rows(cand))
            cand_res = _residual_only(amps, candidates)
            ok = pending & (cand_res <= residual - ARMIJO * alpha * gnorm2)
            for p in range(n):
                trial_factors[p][ok] = candidates[p][ok]
            accepted |= ok
            alpha = np.where(pending & ~ok, alpha * 0.5, alpha)
        active &= accepted
        factors = trial_factors
        residual, conj_grad = _residual_and_gradient(amps, factors)
        if iteration % _STALL_WINDOW == _STALL_WINDOW - 1:
            # hand rows with a stalled first-order tail over to the polish
            active &= residual < window * _STALL_FACTOR
            window = residual.copy()

    factors = _polish_sweeps(amps, factors, _POLISH_SWEEPS)
    residual = _residual_only(amps, factors)

    best = int(np.argmin(residual))
    best_residual = float(residual[best])
    witness = None
    if best_residual <= tol:
        witness = ProductVector(tuple(tuple(complex(v) for v in factors[p][best]) for p in range(n)))
    return CriticalSearchResult(best_residual <= tol, witness, best_residual, restarts)


def random_rational_state(format: Sequence[int], seed: int, bound: int = 9) -> StateTensor:
    """Random exact state with Gaussian-integer amplitudes in [-bound, bound]."""
    import numpy as np
    fmt = check_format(format)
    rng = np.random.default_rng(check_seed(seed))
    size = math.prod(fmt)
    while True:
        res = rng.integers(-bound, bound + 1, size=size)
        ims = rng.integers(-bound, bound + 1, size=size)
        if np.any(res) or np.any(ims):
            break
    amps = [GaussianRational(int(a), int(b)) for a, b in zip(res, ims)]
    return new_state(fmt, amps, EXACT)


def identity_check(
    f: Callable[[StateTensor], object],
    g: Callable[[StateTensor], object],
    format: Sequence[int],
    trials: int = 1000,
    seed: int = 0,
) -> bool:
    """Random-evaluation polynomial identity test over exact rational states.

    Exact agreement on every trial; for bounded-degree polynomial maps this
    certifies identity with overwhelming probability.
    """
    for trial in range(trials):
        state = random_rational_state(format, seed + trial)
        if f(state) != g(state):
            return False
    return True
