"""Numerical dual-variety membership oracle and random identity testing.

Degeneracy of a state tensor is witnessed by a critical point of the
pairing: a product vector at which every first partial derivative
vanishes.  The oracle hunts for one from many starts over the product of
unit spheres, in three stages built on one kernel of second partials:
projected gradient descent, alternating per-party minimization and a
damped Gauss-Newton finish.  A FOUND verdict certifies a zero
hyperdeterminant up to tolerance, while NOT-FOUND is evidence only.
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

_MAX_PARTIES = 8

GRAD_TOL = 1e-12
MAX_ITERS = 500
MAX_HALVINGS = 40
ARMIJO = 1e-4


def _check_parties(state: StateTensor) -> None:
    if not 2 <= state.n_parties <= _MAX_PARTIES:
        raise UnsupportedFormat(f"the oracle needs 2 to {_MAX_PARTIES} parties, got {state.n_parties}")


def _tensor_array(state: StateTensor) -> np.ndarray:
    import numpy as np
    arr = np.array([as_float(a) for a in state.amplitudes], dtype=complex)
    return arr.reshape(state.format)


class _Pairing:
    """The pairing of one state tensor with a batch of product vectors.

    A batch is a (B, D) array, D = sum of the party dimensions: each row
    holds the factors of one product vector side by side, party p in
    columns starts[p]:starts[p + 1].  Everything the search needs derives
    from the leave-two-out contractions H_jm (j < m), the (d_j, d_m)
    matrices of second partials.  Stacked with blocks H_jm and H_jm^T off
    the diagonal and zero blocks on it they form the symmetric D x D
    Jacobian J of the stacked first partials G, and since the pairing is
    multilinear, J x = (n - 1) G.
    """

    def __init__(self, amps: np.ndarray):
        import numpy as np
        self.amps = amps
        self.dims = amps.shape
        self.n = amps.ndim
        self.starts = np.concatenate(([0], np.cumsum(self.dims)))
        self.parts = [slice(self.starts[p], self.starts[p + 1]) for p in range(self.n)]
        # left operand of the one unbatched contraction with each party
        self.unfoldings = [np.moveaxis(amps, p, 0).reshape(d, -1) for p, d in enumerate(self.dims)]
        self.pairs = [(j, m) for j in range(self.n) for m in range(j + 1, self.n)]

    def blocks(self, x: np.ndarray, pairs) -> dict:
        """H_jm as a (B, d_j, d_m) array for each pair (j, m) with j < m.

        The other parties are contracted in ascending order: the first by
        one matmul against its unfolding, each further one by batched
        matmul.  Pairs that share a prefix of contracted parties share its
        partial contraction.
        """
        import numpy as np
        batch = x.shape[0]
        memo = {}
        out = {}
        for j, m in pairs:
            rest = tuple(p for p in range(self.n) if p not in (j, m))
            if not rest:
                out[j, m] = np.broadcast_to(self.amps, (batch,) + self.dims)
                continue
            key = rest[:1]
            if key not in memo:
                memo[key] = x[:, self.parts[rest[0]]] @ self.unfoldings[rest[0]]
            for q in rest[1:]:
                done, key = key, key + (q,)
                if key not in memo:
                    left = [d for p, d in enumerate(self.dims) if p not in done]
                    at = q - sum(p < q for p in done)
                    t = memo[done].reshape(batch, math.prod(left[:at]), left[at], -1)
                    memo[key] = (x[:, None, None, self.parts[q]] @ t).reshape(batch, -1)
            out[j, m] = memo[key].reshape(batch, self.dims[j], self.dims[m])
        return out

    def evaluate(self, x: np.ndarray):
        """Jacobian J (B, D, D), stacked partials G (B, D) and residual |G|^2 (B,)."""
        import numpy as np
        jac = np.zeros((x.shape[0], self.starts[-1], self.starts[-1]), dtype=complex)
        for (j, m), h in self.blocks(x, self.pairs).items():
            jac[:, self.parts[j], self.parts[m]] = h
            jac[:, self.parts[m], self.parts[j]] = h.transpose(0, 2, 1)
        partials = (jac @ x[:, :, None])[:, :, 0] / (self.n - 1)
        return jac, partials, _squared_norms(partials)

    def party_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-party sums of the columns of a (B, D) array, repeated back to (B, D)."""
        import numpy as np
        return np.repeat(np.add.reduceat(values, self.starts[:-1], axis=1), self.dims, axis=1)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Each factor of each row scaled to unit norm."""
        import numpy as np
        return x / np.sqrt(self.party_sums(np.abs(x) ** 2))

    def polish(self, x: np.ndarray, sweeps: int) -> np.ndarray:
        """Alternating exact per-party minimization of the residual.

        With every other factor fixed, the residual is a Hermitian
        quadratic form in the remaining one plus a constant: its matrix is
        conj(R) R^T for the row R of J that belongs to the party.  Its
        sphere-constrained minimizer is the smallest eigenvector.  Each
        sweep is monotone; the iteration converges far faster than
        first-order steps near a critical point.
        """
        import numpy as np
        for _ in range(sweeps):
            for j in range(self.n):
                touching = [(a, b) for a, b in self.pairs if j in (a, b)]
                blocks = self.blocks(x, touching)
                row = np.concatenate(
                    [h if a == j else h.transpose(0, 2, 1) for (a, _), h in blocks.items()], axis=2)
                _, vecs = np.linalg.eigh(row.conj() @ row.transpose(0, 2, 1))
                x[:, self.parts[j]] = vecs[:, :, 0]
        return x

    def newton_finish(self, x: np.ndarray, steps: int):
        """Damped Gauss-Newton steps on the stacked partials; returns the rows and residuals.

        Each step solves (J^H J + mu I) delta = -J^H G with mu = 1e-14 +
        1e-3 residual per row, renormalizes each factor, and is kept for a
        row only where that row's residual falls.  The step uses the second
        partials, so it keeps converging at critical points where the
        Hessian is singular and first-order steps crawl.  On a state of
        large norm mu can vanish against J^H J, whose solve may then meet
        an exactly singular matrix; that ends the finish.
        """
        import numpy as np
        jac, partials, residual = self.evaluate(x)
        eye = np.eye(jac.shape[1])
        for _ in range(steps):
            normal = jac.conj() @ jac + (1e-14 + 1e-3 * residual)[:, None, None] * eye
            try:
                delta = np.linalg.solve(normal, -_conj_gradient(jac, partials)[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                break
            cand = self.normalize(x + delta)
            cand_jac, cand_partials, cand_res = self.evaluate(cand)
            better = cand_res < residual
            if not better.any():
                break  # every row is unchanged, so the next step would repeat this one
            _take_rows(better, (x, jac, partials, residual), (cand, cand_jac, cand_partials, cand_res))
        return x, residual


def _conj_gradient(jac: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """Gradient of the residual in the conjugate factors: J^H G, which is conj(J) G as J is symmetric."""
    return (jac.conj() @ partials[:, :, None])[:, :, 0]


def _take_rows(mask: np.ndarray, current: tuple, candidate: tuple) -> None:
    """Overwrite the masked rows of each current array with the candidate's, in place."""
    for whole, part in zip(current, candidate):
        whole[mask] = part[mask]


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    import numpy as np
    return (np.abs(rows) ** 2).sum(axis=1)


def critical_residual(state: StateTensor, x: ProductVector) -> float:
    """Sum of squared pairing partials at x, factors normalized to unit norm.

    The pairing value itself is omitted: contracting any party gradient
    with its own factor reproduces it, so it vanishes whenever the
    gradient does.  Fewer than 2 or more than 8 parties raise
    UnsupportedFormat.
    """
    import numpy as np
    _check_parties(state)
    if len(x.factors) != state.n_parties:
        raise SizeMismatch("product vector party count does not match the state")
    for p, f in enumerate(x.factors):
        if len(f) != state.format[p]:
            raise SizeMismatch(f"factor {p} has length {len(f)}, expected {state.format[p]}")
    pairing = _Pairing(_tensor_array(state))
    row = np.array([[as_float(v) for f in x.factors for v in f]], dtype=complex)
    return float(pairing.evaluate(pairing.normalize(row))[2][0])


@dataclass(frozen=True)
class CriticalSearchResult:
    """Outcome of the multi-start critical-point search."""

    found: bool
    witness: ProductVector | None
    residual: float
    restarts_used: int


_STALL_WINDOW = 10
_STALL_FACTOR = 1.0 - 1e-6
_POLISH_SWEEPS = 60
_NEWTON_STEPS = 20


def critical_point_search(
    state: StateTensor,
    restarts: int = 64,
    tol: float = 1e-8,
    seed: int = 0,
    max_iters: int = MAX_ITERS,
) -> CriticalSearchResult:
    """Search for a critical point of the pairing on the sphere product.

    Three stages run on all `restarts` starts at once, each seeded
    seed+index.  Projected gradient descent with backtracking (initial
    step 1.0, halving factor 0.5) runs until a row's gradient vanishes or
    its residual stalls.  Alternating exact per-party minimization then
    squeezes out the first-order method's slow tail, and damped
    Gauss-Newton steps finish the rows whose critical point is singular.
    The best residual is selected, so the verdict is deterministic under
    any execution order.  found=True certifies degeneracy up to tol;
    found=False reports the best residual as evidence.  A negative seed,
    fewer than one restart or a tolerance that is not finite and
    nonnegative raises DocumentInvalid; fewer than 2 or more than 8
    parties raise UnsupportedFormat.
    """
    import numpy as np
    check_seed(seed)
    check_tol(tol)
    if restarts < 1:
        raise DocumentInvalid(f"restarts must be at least 1, got {restarts}")
    _check_parties(state)
    pairing = _Pairing(_tensor_array(state))
    dims, parts = pairing.dims, pairing.parts
    x = np.empty((restarts, pairing.starts[-1]), dtype=complex)
    for idx in range(restarts):
        rng = np.random.default_rng(seed + idx)
        for p, d in enumerate(dims):
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            x[idx, parts[p]] = vec / np.linalg.norm(vec)

    jac, partials, residual = pairing.evaluate(x)
    active = np.ones(restarts, dtype=bool)
    window = residual.copy()
    for iteration in range(max_iters):
        if not active.any():
            break
        conj_grad = _conj_gradient(jac, partials)
        tangent = conj_grad - x * pairing.party_sums(np.real(x.conj() * conj_grad))
        gnorm2 = _squared_norms(tangent)
        active &= np.sqrt(gnorm2) >= GRAD_TOL
        if not active.any():
            break
        alpha = np.where(active, 1.0, 0.0)
        pending = active.copy()
        for _ in range(MAX_HALVINGS):
            cand = pairing.normalize(x - alpha[:, None] * tangent)
            cand_jac, cand_partials, cand_res = pairing.evaluate(cand)
            ok = pending & (cand_res <= residual - ARMIJO * alpha * gnorm2)
            # an accepted row leaves `pending`, so no later halving reads its old values
            _take_rows(ok, (x, jac, partials, residual), (cand, cand_jac, cand_partials, cand_res))
            pending &= ~ok
            if not pending.any():
                break
            alpha[pending] *= 0.5
        active &= ~pending
        if iteration % _STALL_WINDOW == _STALL_WINDOW - 1:
            # hand rows with a stalled first-order tail over to the polish
            active &= residual < window * _STALL_FACTOR
            window = residual.copy()

    x = pairing.polish(x, _POLISH_SWEEPS)
    x, residual = pairing.newton_finish(x, _NEWTON_STEPS)

    best = int(np.argmin(residual))
    best_residual = float(residual[best])
    witness = None
    if best_residual <= tol:
        witness = ProductVector(tuple(tuple(complex(v) for v in x[best, part]) for part in parts))
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
