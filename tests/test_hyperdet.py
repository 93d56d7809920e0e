import cmath
import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onionclass import (
    SizeMismatch,
    StateTensor,
    UnsupportedFormat,
    WrongFormat,
    apply_local,
    binary_form_coeffs,
    canonicalize_3qubit,
    classify,
    concurrence,
    det2,
    det3,
    det322,
    det4,
    exact_state,
    flatten,
    float_state,
    from_terms,
    generic4_product,
    generic4_state,
    hyperdet,
    linalg,
    local_operators,
    new_state,
    pairing,
    product_vector,
    random_state,
    schlafli_lift,
    three_tangle,
    to_float,
)
from onionclass.hyperdet import DEGREES, K3, K4, minors322
from onionclass.oracle import identity_check, random_rational_state
from onionclass.scalars import GaussianRational as GR, QuadExt, as_exact
from onionclass.selftest import rand_invertible


def test_pairing_examples(ghz, w_state):
    e0 = (1, 0)
    e1 = (0, 1)
    ones = (1, 1)
    prod = from_terms((2, 2, 2), {(0, 0, 0): 1})
    assert pairing(prod, product_vector([e0, e0, e0])) == GR(1)
    assert pairing(ghz, product_vector([e0, e0, e1])) == GR(0)
    assert pairing(w_state, product_vector([ones, ones, ones])) == GR(3)
    with pytest.raises(SizeMismatch):
        pairing(ghz, product_vector([e0, e0]))
    with pytest.raises(SizeMismatch):
        pairing(ghz, product_vector([e0, e0, (1, 1, 1)]))


def test_det2_examples():
    assert det2(exact_state((2, 2), [1, 0, 0, 1])) == GR(1)
    assert det2(exact_state((2, 2), [1, 0, 0, 0])) == GR(0)
    assert det2(exact_state((2, 2), [1, 2, 3, 4])) == GR(-2)
    with pytest.raises(WrongFormat):
        det2(exact_state((2, 2, 2), [1] + [0] * 7))


def test_det3_examples(ghz, w_state):
    assert det3(ghz) == GR(1)
    assert det3(w_state) == GR(0)
    assert det3(from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1})) == GR(0)


def test_measures():
    bell = float_state((2, 2), [2**-0.5, 0, 0, 2**-0.5])
    assert concurrence(bell) == pytest.approx(1.0)
    nghz = float_state((2, 2, 2), [2**-0.5, 0, 0, 0, 0, 0, 0, 2**-0.5])
    assert three_tangle(nghz) == pytest.approx(1.0)
    w = from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
    assert three_tangle(w) == Fraction(0)
    # exact mode reports the squared measures to stay in the field
    assert concurrence(exact_state((2, 2), [1, 0, 0, 1])) == Fraction(4)
    assert three_tangle(exact_state((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 1])) == Fraction(16)


def test_det322_examples():
    gen = from_terms((3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 1, 1): 1})
    assert det322(gen) == GR(-1)
    deg = from_terms((3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (2, 1, 1): 1})
    assert det322(deg) == GR(0)
    assert minors322(deg)[:2] == (GR(0), GR(0))
    embedded_ghz = from_terms((3, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    assert det322(embedded_ghz) == GR(0)
    assert minors322(embedded_ghz) == (GR(0),) * 4


def test_binary_form_coeffs_examples(ghz):
    coeffs = binary_form_coeffs(ghz)
    assert coeffs.degree == 2
    assert coeffs.coeffs == (GR(0), GR(1), GR(0))
    state = from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1})
    assert binary_form_coeffs(state).coeffs == (GR(1), GR(1), GR(0))
    prod = from_terms((2, 2, 2), {(0, 0, 0): 1})
    assert binary_form_coeffs(prod).coeffs == (GR(0),) * 3
    # the quartic det3(A0 + t A1) of GHZ4 is t^2: both end coefficients vanish
    ghz4 = from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1})
    quartic = binary_form_coeffs(ghz4)
    assert quartic.degree == 4
    assert quartic.coeffs == (GR(0), GR(0), GR(1), GR(0), GR(0))
    # the expansion agrees with det3 of the pencil at sample points
    s4 = random_rational_state((2, 2, 2, 2), 41)
    cs = binary_form_coeffs(s4).coeffs
    for t in (GR(0), GR(2), GR(-1, 3)):
        slice_t = exact_state((2, 2, 2), [x + t * y for x, y in zip(s4.amplitudes[:8], s4.amplitudes[8:])])
        assert det3(slice_t) == sum((c * t**j for j, c in enumerate(cs)), GR(0))
    with pytest.raises(WrongFormat):
        binary_form_coeffs(from_terms((3, 2, 2), {(0, 0, 0): 1}))


def test_schlafli_lift_examples(ghz):
    # the GHZ pencil has c2 = 0 and lifts directly, with no retry
    res = schlafli_lift(binary_form_coeffs(ghz), K3)
    assert res.value == det3(ghz) == GR(1)
    assert res.retries_used == 0
    state = from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1})
    assert schlafli_lift(binary_form_coeffs(state), K3).value == det3(state) == GR(1)
    # identically zero pencils, quadratic and quartic
    prod = from_terms((2, 2, 2), {(0, 0, 0): 1})
    assert schlafli_lift(binary_form_coeffs(prod), K3).value == GR(0)
    prod4 = from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1})
    assert binary_form_coeffs(prod4).coeffs == (GR(0),) * 5
    assert det4(prod4) == GR(0)
    # |0>|GHZ> + |1>|W> has the quartic x0^4 + 4 x0 x1^3, with c4 = 0; its
    # discriminant from the quartic invariants is (4 I^3 - J^2) / 6912 = -27
    c4_zero = from_terms(
        (2, 2, 2, 2),
        {(0, 0, 0, 0): 1, (0, 1, 1, 1): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1, (1, 1, 0, 0): 1},
    )
    assert binary_form_coeffs(c4_zero).coeffs == tuple(GR(v) for v in (1, 0, 0, 4, 0))
    value = det4(c4_zero)
    assert value == GR(-27)
    # a determinant-1 twist of party 0 moves c4 off zero and keeps the value
    twist = local_operators([[[1, 0], [1, 1]]] + [[[1, 0], [0, 1]]] * 3)
    twisted = apply_local(c4_zero, twist)
    assert binary_form_coeffs(twisted).coeffs[-1]
    assert det4(twisted) == value


def test_lift_identity_sample():
    lift = lambda s: schlafli_lift(binary_form_coeffs(s), K3).value
    assert identity_check(det3, lift, (2, 2, 2), trials=60, seed=3)


def test_det4_family():
    assert generic4_product(2, 1, 1, 1) == GR(72900)
    assert generic4_product(1, 1, 1, 1) == GR(0)
    assert det4(generic4_state(2, 1, 1, 1)) == GR(72900)
    assert det4(generic4_state(2, 1, 1, 0)) == GR(0)
    assert det4(from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1})) == GR(0)


def test_k4_regeneration():
    # the stored calibration equals the ratio at the pinned family point
    raw = schlafli_lift(binary_form_coeffs(generic4_state(2, 1, 1, 1)), GR(1))
    assert K4 == generic4_product(2, 1, 1, 1) / raw.value == GR(Fraction(1, 4096))


def test_hyperdet_dispatch():
    bell = exact_state((2, 2), [1, 0, 0, 1])
    res = hyperdet(bell)
    assert res.defined and res.value == GR(1) and res.degree == 2
    undefined = hyperdet(from_terms((4, 2, 2), {(0, 0, 0): 1}))
    assert not undefined.defined
    assert undefined.value == GR(1)
    with pytest.raises(UnsupportedFormat):
        hyperdet(from_terms((2, 2, 2, 2, 2), {(0, 0, 0, 0, 0): 1}))
    with pytest.raises(UnsupportedFormat):
        hyperdet(exact_state((3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 1]))


def test_homogeneity_small_sample(rng):
    for fmt in DEGREES:
        state = random_rational_state(fmt, int(rng.integers(1 << 30)))
        lam = GR(Fraction(3, 2), Fraction(-1, 3))
        scaled = exact_state(fmt, [lam * a for a in state.amplitudes])
        assert hyperdet(scaled).value == lam ** DEGREES[fmt] * hyperdet(state).value


def test_zero_set_slocc_closed(rng):
    w = from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
    for _ in range(10):
        ops = local_operators([rand_invertible(rng, 2) for _ in range(3)])
        assert det3(apply_local(w, ops)) == GR(0)
    deg = from_terms((3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (2, 1, 1): 1})
    for _ in range(10):
        ops = local_operators(
            [rand_invertible(rng, 3), rand_invertible(rng, 2), rand_invertible(rng, 2)]
        )
        assert det322(apply_local(deg, ops)) == GR(0)


def test_float_mode_agrees_with_exact(rng):
    for fmt in [(2, 2), (2, 2, 2), (3, 2, 2)]:
        state = random_rational_state(fmt, int(rng.integers(1 << 30)), bound=3)
        exact_value = complex(hyperdet(state).value)
        float_value = hyperdet(to_float(state)).value
        assert float_value == pytest.approx(exact_value, rel=1e-9)


def test_det4_float_mode(rng):
    for seed in range(3):
        state = random_rational_state((2, 2, 2, 2), 500 + seed, bound=2)
        exact_value = complex(det4(state))
        float_value = det4(to_float(state))
        assert float_value == pytest.approx(exact_value, rel=1e-6, abs=1e-6)
    # the GHZ4 quartic has c0 = c4 = 0
    ghz4 = from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): 1.0}, field_tag="float")
    assert det4(ghz4) == pytest.approx(0.0, abs=1e-9)
    family = generic4_state(2, 1, 1, 1, field_tag="float")
    assert det4(family) == pytest.approx(72900.0)


def test_det4_float_pushed_generic_states(rng):
    # Generic states pushed by random complex operators; every other one is
    # |0>|GHZ> + |1>|W> pushed with an upper-triangular party-0 operator, so
    # its quartic keeps c4 = 0 up to roundoff.  The float value must stay
    # within 1e-6 relative of the exact value of the same amplitudes (floats
    # are dyadic rationals, so Fraction reads them exactly).
    c4_zero = from_terms(
        (2, 2, 2, 2),
        {(0, 0, 0, 0): 1, (0, 1, 1, 1): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1, (1, 1, 0, 0): 1},
        field_tag="float",
    )
    generic = generic4_state(2, 1, 1, 1, field_tag="float")
    for trial in range(100):
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
        if trial % 2:
            mats[0][1, 0] = 0
        pushed = apply_local(c4_zero if trial % 2 else generic, local_operators([m.tolist() for m in mats]))
        shadow = exact_state(
            (2, 2, 2, 2), [GR(Fraction(a.real), Fraction(a.imag)) for a in pushed.amplitudes]
        )
        assert det4(pushed) == pytest.approx(complex(det4(shadow)), rel=1e-6)


# --- the pair kernels against independent references, the QuadExt embedding and the lift ---

_props = settings(derandomize=True, max_examples=100, deadline=None)
_gaussians = st.builds(lambda a, b, c, e: GR(Fraction(a, c), Fraction(b, e)),
                       st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 6), st.integers(1, 6))


def _amplitudes(n):
    return st.lists(_gaussians, min_size=n, max_size=n).filter(any)


def _product(vectors):
    """Row-major amplitudes of the product of one vector per party."""
    amps = [GR(1)]
    for v in vectors:
        amps = [x * y for x in amps for y in v]
    return amps


def _generic(state):
    """The same state over QuadExt scalars with a zero extension part, so the kernels take (q, 0) pairs."""
    return new_state(state.format, [QuadExt(a, 0, GR(2)) for a in state.amplitudes])


def _polynomial_values(state):
    """det3 and the pencil, det322 and its minors, or the quartic pencil and det4, by format."""
    if state.format == (3, 2, 2):
        return (det322(state),) + minors322(state)
    own = det3(state) if state.format == (2, 2, 2) else det4(state)
    return (own,) + binary_form_coeffs(state).coeffs


@_props
@given(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]).flatmap(
    lambda fmt: _amplitudes(math.prod(fmt)).map(lambda amps: exact_state(fmt, amps))))
def test_pair_kernels_match_independent_references(state):
    amps = state.amplitudes
    if state.format == (3, 2, 2):
        # the minors by exact elimination of the party-0 flattening's 3x3 submatrices
        rows = flatten(state, [0])
        minors = tuple(linalg.exact_det([[r[c] for c in range(4) if c != j] for r in rows]) for j in range(4))
        assert minors322(state) == minors
        assert det322(state) == minors[0] * minors[3] - minors[1] * minors[2]
    else:
        # Det(A0 + t A1) at the l + 1 points t = 0..l fixes the degree-l pencil
        coeffs = binary_form_coeffs(state).coeffs
        half, det = len(amps) // 2, det2 if state.format == (2, 2, 2) else det3
        for t in range(len(coeffs)):
            pencil = StateTensor(state.format[1:], tuple(x + t * y for x, y in zip(amps[:half], amps[half:])), "exact")
            assert det(pencil) == sum(c * t**j for j, c in enumerate(coeffs))
    for fast, ext in zip(_polynomial_values(state), _polynomial_values(_generic(state)), strict=True):
        assert type(fast) is GR and fast == as_exact(ext)


#: A Det = 0 representative per format; its float pushes cancel in the invariants
_DEGENERATE = {(2, 2): {(0, 0): 1}, (2, 2, 2): {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
               (3, 2, 2): {(0, 0, 0): 1, (1, 0, 1): 1, (2, 1, 1): 1},
               (2, 2, 2, 2): {(0, 0, 0, 1): 1, (0, 0, 1, 0): 1, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1}}


@_props
@given(st.sampled_from(sorted(DEGREES)), st.integers(0, 2**32 - 1), st.booleans())
def test_float_invariants_match_the_exact_value_of_the_same_input(fmt, seed, pushed):
    # a float is a dyadic rational, so Fraction reads the same input exactly; each float invariant
    # is the float nearest that exact value, real and imaginary part each (complex() rounds once)
    state = random_state(fmt, seed)
    if pushed:
        rng = np.random.default_rng(seed)
        ops = local_operators([(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))).tolist() for d in fmt])
        state = apply_local(from_terms(fmt, _DEGENERATE[fmt], field_tag="float"), ops)
    shadow = exact_state(fmt, [GR(Fraction(a.real), Fraction(a.imag)) for a in state.amplitudes])
    values = [(hyperdet(state).value, hyperdet(shadow).value)]
    if fmt == (3, 2, 2):
        values += zip(minors322(state), minors322(shadow))
    elif fmt != (2, 2):
        values += zip(binary_form_coeffs(state).coeffs, binary_form_coeffs(shadow).coeffs)
    for value, exact in values:
        assert type(value) is complex and value == complex(exact)


def test_float_det4_reads_its_coefficients_exactly(rng):
    # on pushes of a Det = 0 state with a double pencil root the closed form cancels: evaluated in float,
    # |4 I^3 - J^2| reaches 1e-11 of 4 |I|^3 + |J|^2, and on the exactly read coefficients it stays below 1e-18
    hyperplane = generic4_state(1, 2, 3, -4, field_tag="float")  # 1 - 2 - 3 + 4 = 0
    for _ in range(50):
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
        pushed = apply_local(hyperplane, local_operators([m.tolist() for m in mats]))
        c0, c1, c2, c3, c4 = binary_form_coeffs(pushed).coeffs
        i = 12 * c0 * c4 - 3 * c1 * c3 + c2 * c2
        j = 72 * c0 * c2 * c4 + 9 * c1 * c2 * c3 - 27 * c0 * c3 * c3 - 27 * c1 * c1 * c4 - 2 * c2 ** 3
        assert abs(det4(pushed)) <= 1e-18 * (4 * abs(i) ** 3 + abs(j) ** 2) / 6912


def test_float_det4_past_the_float_range_is_not_finite():
    state = random_state((2, 2, 2, 2), 7)
    # at 1e14 the discriminant of the exactly read coefficients passes the float range; at 1e100 the coefficients do
    for scale in (1e14, 1e100):
        value = det4(float_state(state.format, [scale * a for a in state.amplitudes]))
        assert not cmath.isfinite(value), scale


def test_invariants_take_neither_the_lift_nor_numpy_det(monkeypatch, w_state):
    # one body per polynomial in every field: a silent return to the Sylvester lift fails here
    def refuse(*args, **kwargs):
        raise AssertionError("the invariants took the Sylvester lift")
    monkeypatch.setattr(importlib.import_module("onionclass.hyperdet"), "schlafli_lift", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    for fmt in DEGREES:
        exact = random_rational_state(fmt, 7)
        for state in (exact, to_float(exact), _generic(exact)):
            assert hyperdet(state).defined
        classify(to_float(exact))
    rng = np.random.default_rng(7)
    for state in (random_rational_state((2, 2, 2), 7), w_state):
        ops = local_operators([rand_invertible(rng, 2) for _ in range(3)])
        canonicalize_3qubit(to_float(apply_local(state, ops)))


@st.composite
def _quartic_states(draw):
    """(kind, state, family coefficients): random, product, a product first slice, or the generic family.

    A product state has an identically zero pencil, and a product party-0 slice
    A0 a zero leading coefficient c0 = det3(A0).
    """
    kind = draw(st.sampled_from(["random", "product", "leading-zero", "generic4"]))
    if kind == "generic4":
        abgd = draw(_amplitudes(4))
        return kind, generic4_state(*abgd), abgd
    if kind == "product":
        return kind, exact_state((2, 2, 2, 2), _product([draw(_amplitudes(2)) for _ in range(4)])), None
    amps = draw(_amplitudes(16))
    if kind == "leading-zero":
        amps[:8] = _product([draw(_amplitudes(2)) for _ in range(3)])
    return kind, exact_state((2, 2, 2, 2), amps), None


@_props
@given(_quartic_states())
def test_closed_form_det4_matches_the_lift(case):
    kind, state, abgd = case
    coeffs = binary_form_coeffs(state)
    value = det4(state)
    assert type(value) is GR and value == schlafli_lift(coeffs, K4).value
    if kind == "product":
        assert not any(coeffs.coeffs) and not value
    if kind == "leading-zero":
        assert not coeffs.coeffs[0]
    if kind == "generic4":
        assert value == generic4_product(*abgd)


def test_exact_invariants_and_pushes_take_no_gaussian_rational_operations(monkeypatch):
    # the integer kernels never call GaussianRational's + or *; a silent fall back to the scalar loops would
    rng = np.random.default_rng(5)
    quartic = exact_state((2, 2, 2, 2), [GR(Fraction(k, 3), Fraction(-1, k)) for k in range(1, 17)])
    ops = local_operators([rand_invertible(rng, 2) for _ in range(4)])
    smaller = [exact_state(fmt, quartic.amplitudes[:math.prod(fmt)]) for fmt in [(2, 2, 2), (3, 2, 2)]]
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        original = vars(GR)[name]
        monkeypatch.setattr(GR, name, lambda self, other, _f=original, _n=name: calls.append(_n) or _f(self, other))
    pushed = apply_local(quartic, ops)
    hyperdet(pushed)
    for state in smaller:
        hyperdet(state)
    binary_form_coeffs(smaller[0])
    assert calls == []
    assert GR(1) * GR(2) + GR(3) == GR(5) and calls == ["__mul__", "__add__"]
