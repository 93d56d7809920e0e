"""Numerical dual-variety membership oracle and random identity testing.

Degeneracy of a state tensor is witnessed by a critical point of the
pairing: a product vector at which every first partial derivative
vanishes.  The oracle hunts for one from many starts over the product of
unit spheres, in two stages built on one kernel of second partials:
alternating exact per-party minimization (in closed form for a qubit
party, by eigh otherwise), then a Gauss-Newton finish whose damping
adapts per start.  The kernel's contraction plans are built once per
state and replayed on every iterate.  The tensor is rescaled to unit
norm first, so the verdict does not depend on the state's scale.  A
FOUND verdict certifies a zero hyperdeterminant up to tolerance, while
NOT-FOUND is evidence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DocumentInvalid, UnsupportedFormat
from .scalars import EXACT, GaussianRational, as_float, numerators
from .tensor import ProductVector, StateTensor, check_format, check_seed, check_tol, new_state

if TYPE_CHECKING:
    import numpy as np

_MAX_PARTIES = 8


def _check_parties(state: StateTensor) -> None:
    if not 2 <= state.n_parties <= _MAX_PARTIES:
        raise UnsupportedFormat(f"the oracle needs 2 to {_MAX_PARTIES} parties, got {state.n_parties}")


def _tensor_array(state: StateTensor) -> np.ndarray:
    import numpy as np
    arr = np.array([as_float(a) for a in state.amplitudes], dtype=complex)
    return arr.reshape(state.format)


def _float_range(state: StateTensor) -> StateTensor:
    """An exact state times the power of two, exactly, that brings its largest component near 1; others as is."""
    num = numerators(state.amplitudes)
    if num is None:
        return state
    top = max(max(abs(x), abs(y)) for x, y in num[0])
    shift = Fraction(2) ** (num[1].bit_length() - top.bit_length())
    return StateTensor(state.format, tuple(a * shift for a in state.amplitudes), state.field_tag)


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
        self.pairs = tuple((j, m) for j in range(self.n) for m in range(j + 1, self.n))
        self.touching = [tuple(pair for pair in self.pairs if j in pair) for j in range(self.n)]
        self.plans = {pairs: self._plan(pairs) for pairs in (self.pairs, *self.touching)}

    def _plan(self, pairs) -> tuple:
        """The contraction steps behind blocks(x, pairs), and the step each block reads.

        The other parties of a pair are contracted in ascending order: the
        first by one matmul against its unfolding, each further one, q, by
        batched matmul on the source step's partial contraction reshaped
        to (batch, a, d_q, -1).  A step is (source step or None, q, (a,
        d_q)); pairs that share a prefix of contracted parties share its
        steps.  A block reads None when no party is left to contract.
        """
        steps, slot_of, reads = [], {}, []
        for j, m in pairs:
            rest = tuple(p for p in range(self.n) if p not in (j, m))  # ascending, so q sits at q - i
            slot = None
            for i, q in enumerate(rest):
                done, key = rest[:i], rest[:i + 1]
                if key not in slot_of:
                    left = [d for p, d in enumerate(self.dims) if p not in done]
                    steps.append((slot, q, (math.prod(left[:q - i]), left[q - i])))
                    slot_of[key] = len(steps) - 1
                slot = slot_of[key]
            reads.append(((j, m), slot))
        return steps, reads

    def blocks(self, x: np.ndarray, pairs) -> dict:
        """H_jm as a (B, d_j, d_m) array for each pair (j, m) of a planned pair set.

        The planned sets are all pairs and each party's touching pairs;
        this replays the set's contraction plan (see _plan).
        """
        import numpy as np
        batch = x.shape[0]
        steps, reads = self.plans[pairs]
        memo = []
        for source, q, left in steps:
            if source is None:
                memo.append(x[:, self.parts[q]] @ self.unfoldings[q])
            else:
                t = memo[source].reshape((batch,) + left + (-1,))
                memo.append((x[:, None, None, self.parts[q]] @ t).reshape(batch, -1))
        out = {}
        for (j, m), slot in reads:
            if slot is None:
                out[j, m] = np.broadcast_to(self.amps, (batch,) + self.dims)
            else:
                out[j, m] = memo[slot].reshape(batch, self.dims[j], self.dims[m])
        return out

    def evaluate(self, x: np.ndarray):
        """Jacobian J (B, D, D), stacked partials G (B, D) and residual |G|^2 (B,)."""
        import numpy as np
        jac = np.zeros((x.shape[0], self.starts[-1], self.starts[-1]), dtype=complex)
        for (j, m), h in self.blocks(x, self.pairs).items():
            jac[:, self.parts[j], self.parts[m]] = h
            jac[:, self.parts[m], self.parts[j]] = h.transpose(0, 2, 1)
        partials = (jac @ x[:, :, None])[:, :, 0] / (self.n - 1)
        return jac, partials, (np.abs(partials) ** 2).sum(axis=1)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Each factor of each row scaled to unit norm."""
        import numpy as np
        norms = np.sqrt(np.add.reduceat(np.abs(x) ** 2, self.starts[:-1], axis=1))
        return x / np.repeat(norms, self.dims, axis=1)

    def random_rows(self, count: int, seed: int) -> np.ndarray:
        """`count` random rows of unit factors, row i drawn from default_rng(seed + i).

        Each row takes one draw of 2D standard normals: for each party in
        turn, d real parts and then d imaginary parts.
        """
        import numpy as np
        width = self.starts[-1]
        real = np.repeat(self.starts[:-1], self.dims) + np.arange(width)
        imag = real + np.repeat(self.dims, self.dims)
        draws = np.array([np.random.default_rng(seed + i).standard_normal(2 * width) for i in range(count)])
        return self.normalize(draws[:, real] + 1j * draws[:, imag])

    def polish(self, x: np.ndarray, sweeps: int) -> np.ndarray:
        """Alternating exact per-party minimization of the residual.

        With every other factor fixed, the residual is a Hermitian
        quadratic form in the remaining one plus a constant: its matrix is
        conj(R) R^T for the row R of J that belongs to the party.  Its
        sphere-constrained minimizer is the smallest eigenvector, taken in
        closed form from R for a qubit party (_qubit_minimizer) and from
        eigh otherwise.  Each sweep is monotone.
        """
        import numpy as np
        for _ in range(sweeps):
            for j in range(self.n):
                blocks = self.blocks(x, self.touching[j])
                row = np.concatenate(
                    [h if a == j else h.transpose(0, 2, 1) for (a, _), h in blocks.items()], axis=2)
                if self.dims[j] == 2:
                    sq = (row.real ** 2 + row.imag ** 2).sum(axis=2)
                    cross = (row[:, 0].conj() * row[:, 1]).sum(axis=1)
                    x[:, self.parts[j]] = _qubit_minimizer(sq[:, 0], cross, sq[:, 1])
                else:
                    _, vecs = np.linalg.eigh(row.conj() @ row.transpose(0, 2, 1))
                    x[:, self.parts[j]] = vecs[:, :, 0]
        return x

    def newton_finish(self, x: np.ndarray, steps: int):
        """Levenberg-Marquardt steps on the stacked partials; returns the rows and residuals.

        Each step solves (J^H J + mu I) delta = -J^H G with mu = 1e-14 +
        factor * residual per row, renormalizes each factor, and is kept for
        a row only where that row's residual falls.  A row's factor starts
        at 1e-3, halves when its step is kept and doubles when it is not,
        so a rejected step is never retried unchanged.  The step uses the
        second partials, so it keeps converging at critical points where
        the Hessian is singular and first-order steps crawl.  A solve that
        meets an exactly singular matrix ends the finish.
        """
        import numpy as np
        jac, partials, residual = self.evaluate(x)
        eye = np.eye(jac.shape[1])
        factor = np.full(x.shape[0], 1e-3)
        for _ in range(steps):
            normal = jac.conj() @ jac + (1e-14 + factor * residual)[:, None, None] * eye
            try:
                delta = np.linalg.solve(normal, -_conj_gradient(jac, partials)[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                break
            cand = self.normalize(x + delta)
            cand_jac, cand_partials, cand_res = self.evaluate(cand)
            better = cand_res < residual
            factor = np.where(better, 0.5 * factor, 2.0 * factor)
            for whole, part in zip((x, jac, partials, residual), (cand, cand_jac, cand_partials, cand_res)):
                whole[better] = part[better]
        return x, residual


def _qubit_minimizer(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit minimizers (B, 2) of the Hermitian forms [[a, b], [conj(b), c]] on the sphere.

    With h = (a - c)/2 and r = hypot(h, |b|) the smallest eigenvalue is
    (a + c)/2 - r, and both (-b, h + r) and (r - h, -conj(b)) span its
    eigenspace.  The first is taken for h >= 0 and the second otherwise,
    so the real entry is s = |h| + r and never cancels, and both have
    length hypot(|b|, s), which does not underflow where |b|^2 does.  A
    form with s = 0 (zero, or a multiple of the identity) maps to e0, as
    eigh does.
    """
    import numpy as np
    h = (a - c) / 2
    mag = np.abs(b)
    s = np.abs(h) + np.hypot(h, mag)
    upper = h >= 0
    flat = s == 0
    v = np.empty(a.shape + (2,), dtype=complex)
    v[:, 0] = np.where(upper, -b, s) + flat
    v[:, 1] = np.where(upper, s, -b.conj())
    return v / (np.hypot(mag, s) + flat)[:, None]


def _conj_gradient(jac: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """Gradient of the residual in the conjugate factors: J^H G, which is conj(J) G as J is symmetric."""
    return (jac.conj() @ partials[:, :, None])[:, :, 0]


def critical_residual(state: StateTensor, x: ProductVector) -> float:
    """Sum of squared pairing partials at x, factors normalized to unit norm.

    The pairing value itself is omitted: contracting any party gradient
    with its own factor reproduces it, so it vanishes whenever the
    gradient does.  Fewer than 2 or more than 8 parties raise
    UnsupportedFormat.
    """
    import numpy as np
    _check_parties(state)
    x.check_shape(state.format)
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


_POLISH_SWEEPS = 60
_NEWTON_STEPS = 30


def critical_point_search(
    state: StateTensor,
    restarts: int = 64,
    tol: float = 1e-8,
    seed: int = 0,
) -> CriticalSearchResult:
    """Search for a critical point of the pairing on the sphere product.

    An exact state is scaled by a power of two before its float conversion,
    so amplitudes past the float range convert.  The tensor is divided by
    its Frobenius norm, and the reported residual is critical_residual(state
    / |state|, witness): the verdict depends on the state's direction only.
    Two stages run on all `restarts` starts at once, each seeded seed+index.
    Alternating exact per-party minimization drives every start towards a
    critical point, and Levenberg-Marquardt steps with per-start damping
    finish the starts whose critical point is singular.  The best residual
    is selected, so the verdict is deterministic under any execution order.
    `tol` bounds the gradient's norm, the residual's square root: found=True,
    with a witness, iff the best residual is at most tol**2, and certifies
    degeneracy up to tol; found=False reports it as evidence.  A negative
    seed, fewer than one restart or a tolerance that is not finite and
    nonnegative raises DocumentInvalid; fewer than 2 or more than 8 parties
    raise UnsupportedFormat.
    """
    import numpy as np
    check_seed(seed)
    check_tol(tol)
    if restarts < 1:
        raise DocumentInvalid(f"restarts must be at least 1, got {restarts}")
    _check_parties(state)
    amps = _tensor_array(_float_range(state))
    amps = amps / np.abs(amps).max()  # keeps the squared norm below overflow
    pairing = _Pairing(amps / np.linalg.norm(amps))
    x = pairing.polish(pairing.random_rows(restarts, seed), _POLISH_SWEEPS)
    x, residual = pairing.newton_finish(x, _NEWTON_STEPS)

    best = int(np.argmin(residual))
    best_residual = float(residual[best])
    found = best_residual <= tol * tol
    witness = None
    if found:
        witness = ProductVector(tuple(tuple(complex(v) for v in x[best, part]) for part in pairing.parts))
    return CriticalSearchResult(found, witness, best_residual, restarts)


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
