import cmath
import warnings

import numpy as np
import pytest

from onionclass import (
    SizeMismatch,
    UnsupportedFormat,
    apply_local,
    class_catalog,
    critical_point_search,
    critical_residual,
    det2,
    det3,
    float_state,
    from_terms,
    identity_check,
    local_operators,
    product_vector,
    random_rational_state,
    random_state,
    to_float,
)
from onionclass import oracle
from onionclass.errors import DocumentInvalid
from onionclass.selftest import rand_invertible


def test_residual_examples(ghz):
    prod = from_terms((2, 2, 2), {(0, 0, 0): 1})
    x = product_vector([(0, 1), (0, 1), (0, 1)])
    assert critical_residual(prod, x) == 0.0
    e0 = (1, 0)
    assert critical_residual(ghz, product_vector([e0, e0, e0])) == pytest.approx(3.0)
    with pytest.raises(SizeMismatch):
        critical_residual(ghz, product_vector([e0, e0]))


def test_residual_phase_invariance(ghz, w_state, rng):
    x = product_vector([(0.3 + 0.1j, 0.7), (0.2, -0.5j), (1.0, 0.25j)])
    base = critical_residual(w_state, x)
    phases = [cmath.exp(1j * t) for t in rng.uniform(0, 2 * np.pi, 3)]
    rotated = product_vector(
        [tuple(p * v for v in f) for p, f in zip(phases, x.factors)]
    )
    assert critical_residual(w_state, rotated) == pytest.approx(base, rel=1e-12)


def test_search_verdicts(ghz, w_state):
    missing = critical_point_search(ghz, restarts=64, tol=1e-8, seed=11)
    assert not missing.found
    assert missing.residual > 1e-3
    assert missing.witness is None
    hit = critical_point_search(w_state, restarts=64, tol=1e-8, seed=11)
    assert hit.found
    assert hit.residual <= 1e-8
    assert hit.witness is not None
    for factor in hit.witness.factors:
        assert sum(abs(v) ** 2 for v in factor) == pytest.approx(1.0)
    # the witness certifies: its residual matches the reported one
    assert critical_residual(to_float(w_state), hit.witness) == pytest.approx(
        hit.residual, abs=1e-12
    )


def test_search_determinism(w_state):
    a = critical_point_search(w_state, restarts=16, tol=1e-8, seed=5)
    b = critical_point_search(w_state, restarts=16, tol=1e-8, seed=5)
    assert a.residual == b.residual
    assert a.found == b.found
    assert a.witness.factors == b.witness.factors
    c = critical_point_search(w_state, restarts=16, tol=1e-8, seed=6)
    assert c.found


def test_search_agrees_with_formula_sample(rng):
    for i in range(6):
        state = random_rational_state((2, 2, 2), 3300 + i, bound=4)
        value = det3(state)
        result = critical_point_search(to_float(state), restarts=32, tol=1e-8, seed=2)
        assert result.found == (not value)


def test_generic_family_zeros_have_critical_points():
    from onionclass import generic4_state

    degenerate = generic4_state(2, 1, 1, 0, field_tag="float")
    result = critical_point_search(degenerate, restarts=32, tol=1e-8, seed=7)
    assert result.found
    generic = generic4_state(2, 1, 1, 1, field_tag="float")
    result = critical_point_search(generic, restarts=32, tol=1e-8, seed=7)
    assert not result.found


def test_identity_check_examples():
    assert identity_check(det2, det2, (2, 2), trials=20, seed=1)
    flipped = lambda s: -det3(s)
    assert not identity_check(det3, flipped, (2, 2, 2), trials=20, seed=1)


def test_random_rational_state_determinism():
    a = random_rational_state((2, 2, 2), 4)
    b = random_rational_state((2, 2, 2), 4)
    assert a.amplitudes == b.amplitudes
    assert a.field_tag == "exact"


def test_seed_and_restart_rules():
    state = random_state((2, 2, 2), 1)
    for call in [
        lambda: random_state((2, 2), -1),
        lambda: random_rational_state((2, 2), -1),
        lambda: critical_point_search(state, restarts=4, seed=-3),
        lambda: critical_point_search(state, restarts=0),
    ]:
        with pytest.raises(DocumentInvalid):
            call()
    assert critical_point_search(state, restarts=1, seed=0).restarts_used == 1


def _unit_push(family, name, seed):
    """A catalog representative pushed by random Gaussian-integer operators, at unit norm."""
    rep = class_catalog(family)[name]
    rng = np.random.default_rng(seed)
    ops = local_operators([rand_invertible(rng, d) for d in rep.format])
    amps = to_float(apply_local(rep, ops)).amplitudes
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    return float_state(rep.format, [a / norm for a in amps])


@pytest.mark.parametrize("family, name, seeds, degenerate", [
    ("format322", "W", range(6), True),
    ("format322", "W", [196, 324], True),
    ("format322", "W", [26, 41, 45, 101, 117, 218], True),
    ("qubit3", "W", [207], True),
    ("qubit3", "B1", [0], True),
    ("qubit3", "S", [0], True),
    ("format322", "GHZ", [0], True),
    ("qubit4", "W4", [0], True),
    ("qubit3", "GHZ", [0, 1], False),
    ("format322", "GEN322", [0, 1], False),
], ids=["3x2x2-W", "3x2x2-W-singular-tail", "3x2x2-W-rejected-steps", "2x2x2-W-rejected-steps",
        "2x2x2-B1", "2x2x2-S", "3x2x2-GHZ", "2x2x2x2-W4", "2x2x2-GHZ", "3x2x2-GEN322"])
def test_search_verdicts_on_unit_pushes(family, name, seeds, degenerate):
    # seeds 196 and 324 end near 1e-7 without the Gauss-Newton finish; the "rejected-steps" seeds
    # end at 2.6e-8 to 2.4e-6 when a row's damping stays fixed and a rejected step repeats
    for seed in seeds:
        result = critical_point_search(_unit_push(family, name, seed), restarts=64, tol=1e-8, seed=seed)
        assert result.found == degenerate, (name, seed, result.residual)
        if degenerate:
            assert result.residual <= 1e-20, (name, seed, result.residual)
        else:
            assert result.residual >= 5e-4, (name, seed, result.residual)


# a unit-norm push of a generic 2x2x2x2 state (exact Det != 0) about 2e-5 from the dual variety:
# its best residual, the squared gradient norm, is 1.5e-9, so only a cut at tol**2 reads it generic
_NEAR_DEGENERATE_GENERIC4 = [
    (-0.13259091225664196, -0.24102081383540694), (0.025634243036284112, 0.2203955608177071),
    (-0.17708252948053738, 0.01797343477256702), (0.13789454874690765, 0.041839798978762575),
    (0.010017980037168504, 0.14909111467080186), (0.03859868779026688, -0.11255495218230495),
    (0.0898671738628351, 0.03270575835663835), (-0.05598282961947105, -0.052447071959293934),
    (0.3476828365840834, 0.3606472813380661), (-0.15115363997257183, -0.3780314231672703),
    (0.3052537446619579, -0.1208050533893849), (-0.26783364275841676, -0.005008990018584252),
    (-0.08603676973097656, -0.2592888950796554), (-0.016205555942478463, 0.21892232845929996),
    (-0.17678788300885595, -0.01473232358407133), (0.12699262929469485, 0.06688474907168383),
]


def test_tol_bounds_the_gradient_norm():
    state = float_state((2, 2, 2, 2), [complex(re, im) for re, im in _NEAR_DEGENERATE_GENERIC4])
    result = critical_point_search(state, restarts=64, tol=1e-8, seed=214)
    assert 1e-16 < result.residual < 1e-8
    assert not result.found and result.witness is None
    # the same residual is FOUND once tol, the gradient-norm bound, reaches its square root
    loose = critical_point_search(state, restarts=64, tol=1e-4, seed=214)
    assert loose.residual == result.residual and loose.found and loose.witness is not None


def test_singular_newton_system_ends_the_finish():
    # the search rescales the tensor to unit norm, so the damping never vanishes against J^H J
    # and neither the verdict nor the residual depends on the state's scale
    b1 = from_terms((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    ghz = from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    for state, scale, found in [(b1, 1e8, True), (b1, 1e150, True), (b1, 1e200, True), (ghz, 1e-5, False)]:
        scaled = float_state(state.format, [scale * complex(a) for a in to_float(state).amplitudes])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = critical_point_search(scaled, restarts=8, seed=0)
        assert result.found == found, (scale, result.residual)
        assert result.residual == critical_point_search(to_float(state), restarts=8, seed=0).residual


def test_party_count_rule():
    one = float_state((2,), [1, 0.5])
    nine = float_state((2,) * 9, [1] + [0] * 511)
    for state in (one, nine):
        x = product_vector([(1, 0)] * state.n_parties)
        with pytest.raises(UnsupportedFormat):
            critical_residual(state, x)
        with pytest.raises(UnsupportedFormat):
            critical_point_search(state, restarts=1)


def _einsum_reference(amps, factors):
    """Pair Hessians, per-party gradients, residual and conjugate gradient by plain einsum."""
    n = amps.ndim
    subs = "abcdefgh"[:n]

    def contract(keep):
        operands, script = [amps], [subs]
        for p in range(n):
            if p not in keep:
                operands.append(factors[p])
                script.append("z" + subs[p])
        out = "z" + "".join(subs[p] for p in keep)
        if len(operands) == 1:
            return np.broadcast_to(amps, (len(factors[0]),) + amps.shape)
        return np.einsum(",".join(script) + "->" + out, *operands)

    hessians = {(j, m): contract((j, m)) for j in range(n) for m in range(j + 1, n)}
    grads = [contract((j,)) for j in range(n)]
    residual = sum((np.abs(g) ** 2).sum(axis=1) for g in grads)
    conj_grad = [np.zeros_like(f) for f in factors]
    for (j, m), h in hessians.items():
        conj_grad[m] += np.einsum("zjm,zj->zm", h.conj(), grads[j])
        conj_grad[j] += np.einsum("zjm,zm->zj", h.conj(), grads[m])
    return hessians, grads, residual, conj_grad


@pytest.mark.parametrize("fmt", [(2, 2), (3, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 2, 2)],
                         ids=lambda fmt: "x".join(map(str, fmt)))
def test_pairing_kernel_matches_einsum(fmt):
    rng = np.random.default_rng(sum(fmt) * 31 + len(fmt))
    amps = rng.standard_normal(fmt) + 1j * rng.standard_normal(fmt)
    factors = [rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d)) for d in fmt]
    hessians, grads, residual, conj_grad = _einsum_reference(amps, factors)
    pairing = oracle._Pairing(amps)
    x = np.concatenate(factors, axis=1)
    close = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    blocks = pairing.blocks(x, pairing.pairs)
    assert blocks.keys() == hessians.keys()
    for pair, h in hessians.items():
        close(blocks[pair], h)
    jac, partials, kernel_residual = pairing.evaluate(x)
    np.testing.assert_array_equal(jac, jac.transpose(0, 2, 1))
    close(kernel_residual, residual)
    kernel_grad = oracle._conj_gradient(jac, partials)
    for p, part in enumerate(pairing.parts):
        close(partials[:, part], grads[p])
        close(kernel_grad[:, part], conj_grad[p])


@pytest.mark.parametrize("family, name", [
    ("format322", "W"), ("qubit3", "GHZ"), ("qubit4", "W4"), ("format322", "GEN322"),
])
def test_newton_finish_never_raises_a_residual(family, name):
    state = _unit_push(family, name, 3)
    pairing = oracle._Pairing(np.array(state.amplitudes).reshape(state.format))
    rng = np.random.default_rng(17)
    width = pairing.starts[-1]
    x = pairing.normalize(rng.standard_normal((16, width)) + 1j * rng.standard_normal((16, width)))
    x = pairing.polish(x, 2)
    before = pairing.evaluate(x)[2]
    finished, after = pairing.newton_finish(x.copy(), 20)
    assert np.all(after <= before)
    assert np.any(after < before)
    np.testing.assert_allclose(pairing.evaluate(finished)[2], after, rtol=1e-9, atol=1e-30)


def _forms():
    """(a, b, c) of 2x2 Hermitian forms [[a, b], [conj(b), c]]: random, rank-1, zero, scalar, near-degenerate."""
    rng = np.random.default_rng(41)
    rows = rng.standard_normal((20, 2, 5)) + 1j * rng.standard_normal((20, 2, 5))
    rows[5:10, 1] = (0.3 - 2j) * rows[5:10, 0]  # rank 1
    rows[10:12] = 0
    a = (np.abs(rows[:, 0]) ** 2).sum(axis=1)
    c = (np.abs(rows[:, 1]) ** 2).sum(axis=1)
    b = (rows[:, 0].conj() * rows[:, 1]).sum(axis=1)
    a = np.concatenate([a, [2.5, 1.0, 1.0, 1.0, 1.0 + 1e-15]])
    c = np.concatenate([c, [2.5, 1.0, 1.0, 1.0 + 1e-16, 1.0]])
    b = np.concatenate([b, [0, 1e-300, -3e-300j, 1e-300 + 1e-300j, 2e-300]])
    return a, b, c


def test_qubit_minimizer_matches_eigh():
    a, b, c = _forms()
    forms = np.stack([np.stack([a, b], axis=1), np.stack([b.conj(), c], axis=1)], axis=1)
    vecs = oracle._qubit_minimizer(a, b, c)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=1e-15)
    rayleigh = np.einsum("zi,zij,zj->z", vecs.conj(), forms, vecs).real
    lowest = np.linalg.eigvalsh(forms)[:, 0]
    assert np.all(np.abs(rayleigh - lowest) <= 1e-12 * (a + c))
    flat = (a == c) & (b == 0)  # zero and scalar forms
    assert flat.sum() == 3
    np.testing.assert_array_equal(vecs[flat], np.linalg.eigh(forms[flat])[1][:, :, 0])


def _eigh_polish(pairing, x, sweeps):
    """The polish with every party's minimizer taken from eigh of conj(R) R^T."""
    for _ in range(sweeps):
        for j, part in enumerate(pairing.parts):
            blocks = pairing.blocks(x, pairing.touching[j])
            row = np.concatenate([h if a == j else h.transpose(0, 2, 1) for (a, _), h in blocks.items()], axis=2)
            x[:, part] = np.linalg.eigh(row.conj() @ row.transpose(0, 2, 1))[1][:, :, 0]
    return x


@pytest.mark.parametrize("fmt", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 2, 2)],
                         ids=lambda fmt: "x".join(map(str, fmt)))
def test_closed_form_polish_matches_eigh_reference(fmt):
    rng = np.random.default_rng(len(fmt) * 7 + fmt[1])
    amps = rng.standard_normal(fmt) + 1j * rng.standard_normal(fmt)
    pairing = oracle._Pairing(amps / np.linalg.norm(amps))
    start = pairing.random_rows(12, 3)
    closed = pairing.evaluate(pairing.polish(start.copy(), 10))[2]
    reference = pairing.evaluate(_eigh_polish(pairing, start.copy(), 10))[2]
    np.testing.assert_allclose(closed, reference, rtol=1e-10)


@pytest.mark.parametrize("fmt", [(2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 2, 2)],
                         ids=lambda fmt: "x".join(map(str, fmt)))
def test_random_rows_match_per_party_draws(fmt):
    # one draw of 2D normals per row is the stream of d real and then d imaginary draws per party
    pairing = oracle._Pairing(np.ones(fmt, dtype=complex))
    raw = np.empty((40, pairing.starts[-1]), dtype=complex)
    unit = np.empty_like(raw)
    for idx in range(40):
        rng = np.random.default_rng(9 + idx)
        for part, d in zip(pairing.parts, fmt):
            raw[idx, part] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            unit[idx, part] = raw[idx, part] / np.linalg.norm(raw[idx, part])
    rows = pairing.random_rows(40, 9)
    np.testing.assert_array_equal(rows, pairing.normalize(raw))
    # normalize and np.linalg.norm sum the squares in different orders
    np.testing.assert_allclose(rows, unit, rtol=0, atol=2 * np.finfo(float).eps)
