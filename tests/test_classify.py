import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onionclass import (
    BadCut,
    FamilyMismatch,
    NoCanonicalRepresentative,
    UnsupportedFormat,
    apply_local,
    canonicalize_3qubit,
    class_catalog,
    classify,
    cut_rank,
    ensemble,
    ensemble_upper_class,
    exact_state,
    float_state,
    from_terms,
    generic4_state,
    linalg,
    local_operators,
    local_ranks,
    random_state,
    reachable,
    representative,
    separability_pattern,
    states_proportional,
    to_float,
)
from onionclass.classify import FORMAT322, QUBIT3, QUBIT4, RANKS_BY_NAME, ClassLabel
from onionclass.errors import DocumentInvalid
from onionclass.hyperdet import det3, hyperdet
from onionclass.oracle import random_rational_state
from onionclass.scalars import GaussianRational as GR
from onionclass.selftest import rand_invertible, rand_singular
from onionclass.singular import cusp_test_3qubit, node_test_322, node_test_3qubit, section_flags
from onionclass.tensor import Decisions, compress_party


def test_classify_catalog_qubit3():
    for name, state in class_catalog(QUBIT3).items():
        label = classify(state)
        assert label.name == name
        assert label.local_ranks == RANKS_BY_NAME[QUBIT3][name]


def test_classify_catalog_format322():
    for name, state in class_catalog(FORMAT322).items():
        label = classify(state)
        assert label.name == name
        assert label.local_ranks == RANKS_BY_NAME[FORMAT322][name]


def test_classify_examples(ghz):
    assert classify(ghz).onion_level == 0
    deg = from_terms((3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (2, 1, 1): 1})
    label = classify(deg)
    assert label.name == "DEG322" and label.onion_level == 1
    slice_pencil = from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1})
    assert classify(slice_pencil).name == "GHZ"
    ghz4 = from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1})
    label4 = classify(ghz4)
    assert label4.name == "DEGENERATE4"
    assert label4.diagnostics["local_ranks"] == (2, 2, 2, 2)
    assert len(label4.diagnostics["cut_ranks"]) == 7
    assert classify(generic4_state(2, 1, 1, 1)).name == "GENERIC4"


def test_classify_bipartite_ladder():
    full = exact_state((3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 1])
    label = classify(full)
    assert label.name == "S3" and label.onion_level == 0
    rank1 = exact_state((3, 3), [1, 0, 0, 0, 0, 0, 0, 0, 0])
    label = classify(rank1)
    assert label.name == "S1" and label.onion_level == 2
    with pytest.raises(UnsupportedFormat):
        classify(from_terms((3, 2), {(0, 0): 1}))


def test_classify_unsupported():
    with pytest.raises(UnsupportedFormat):
        classify(from_terms((2, 2, 2, 2, 2), {(0, 0, 0, 0, 0): 1}))


def test_embedding_consistency(rng):
    # a 3-qubit state zero-padded into the 3x2x2 format keeps its class name
    for name, state in class_catalog(QUBIT3).items():
        padded_terms = {}
        for multi in itertools.product(range(2), repeat=3):
            value = state.amplitude(multi)
            if value:
                padded_terms[multi] = value
        padded = from_terms((3, 2, 2), padded_terms)
        assert classify(padded).name == name
    for _ in range(10):
        state = random_rational_state((2, 2, 2), int(rng.integers(1 << 30)))
        padded = from_terms(
            (3, 2, 2),
            {m: state.amplitude(m) for m in itertools.product(range(2), repeat=3) if state.amplitude(m)},
        )
        assert classify(padded).name == classify(state).name


def test_classify_invariant_under_invertible(rng):
    for family, fmt in ((QUBIT3, (2, 2, 2)), (FORMAT322, (3, 2, 2))):
        for name, state in class_catalog(family).items():
            for _ in range(5):
                ops = local_operators([rand_invertible(rng, d) for d in fmt])
                assert classify(apply_local(state, ops)).name == name


def test_representative_round_trip():
    for family in (QUBIT3, FORMAT322):
        for name, state in class_catalog(family).items():
            label = classify(state)
            rep = representative(label)
            assert rep.amplitudes == state.amplitudes
    generic = classify(generic4_state(2, 1, 1, 1))
    with pytest.raises(NoCanonicalRepresentative):
        representative(generic)
    bipartite = classify(exact_state((3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 0]))
    rep = representative(bipartite)
    assert rep.format == (3, 3)


def test_reachable_matrix():
    assert reachable("GHZ", "B2", family=QUBIT3)
    assert not reachable("GHZ", "W", family=QUBIT3)
    assert not reachable("W", "GHZ", family=QUBIT3)
    assert not reachable("B1", "B2", family=QUBIT3)
    assert reachable("B1", "B1", family=QUBIT3)
    assert reachable("GEN322", "S", family=FORMAT322)
    assert not reachable("GEN322", "DEG322", family=FORMAT322)
    assert not reachable("DEG322", "GEN322", family=FORMAT322)
    assert reachable("DEG322", "W", family=FORMAT322)
    assert reachable("GENERIC4", "DEGENERATE4", family=QUBIT4)
    assert reachable("S2", "S1", family="bipartite")
    assert not reachable("S1", "S2", family="bipartite")
    with pytest.raises(FamilyMismatch):
        reachable("GHZ", "GENERIC4", family=None)


def test_reachability_dag_structure():
    from onionclass import reachability_dag

    dag = reachability_dag(QUBIT3)
    assert dag["GHZ"] == {"B1", "B2", "B3"}
    assert dag["S"] == frozenset()
    dag322 = reachability_dag(FORMAT322)
    assert dag322["GEN322"] == {"GHZ", "W"}
    assert "DEG322" not in dag322["GEN322"]
    with pytest.raises(FamilyMismatch):
        reachability_dag("nonsense")


def test_reachable_qubit3_embeds_into_322():
    lab3 = classify(class_catalog(QUBIT3)["GHZ"])
    lab322 = classify(class_catalog(FORMAT322)["GEN322"])
    assert reachable(lab322, lab3)
    assert not reachable(lab3, lab322)


def test_canonicalize_examples(ghz):
    ops, label = canonicalize_3qubit(ghz)
    assert label.name == "GHZ"
    assert states_proportional(apply_local(ghz, ops), representative(label))
    state = from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1})
    ops, label = canonicalize_3qubit(state)
    assert label.name == "GHZ"
    assert states_proportional(apply_local(state, ops), representative(label))
    w_form = from_terms((2, 2, 2), {(0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1})
    ops, label = canonicalize_3qubit(w_form)
    assert label.name == "W"
    assert states_proportional(apply_local(w_form, ops), representative(label))


def test_canonicalize_all_classes_pushed(rng):
    eye, flip = [[1, 0], [0, 1]], [[0, 1], [1, 0]]
    for name, rep in class_catalog(QUBIT3).items():
        pushed = [
            apply_local(rep, local_operators([rand_invertible(rng, 2) for _ in range(3)]))
            for _ in range(6)
        ]
        # the zero amplitudes of unpushed and flipped representatives move the
        # exact first-nonzero pivot away from index 0
        sparse = [rep] + [
            apply_local(rep, local_operators([flip if q == p else eye for q in range(3)]))
            for p in range(3)
        ]
        for state in pushed + sparse + [to_float(s) for s in sparse]:
            back, label = canonicalize_3qubit(state)
            assert label.name == name
            assert states_proportional(apply_local(state, back), representative(label))


def test_canonicalize_float_mode(rng):
    for _ in range(15):
        state = random_state((2, 2, 2), int(rng.integers(1 << 30)))
        ops, label = canonicalize_3qubit(state)
        out = apply_local(state, ops)
        assert states_proportional(out, to_float(representative(label)), tol=1e-7)


def test_canonicalize_float_all_classes(rng):
    def rand_c2():
        while True:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(m)) > 0.1:
                return m.tolist()

    for name, rep in class_catalog(QUBIT3).items():
        rep = to_float(rep)
        for _ in range(4):
            push = local_operators([rand_c2() for _ in range(3)])
            state = apply_local(rep, push)
            ops, label = canonicalize_3qubit(state)
            assert label.name == name
            out = apply_local(state, ops)
            assert states_proportional(out, to_float(representative(label)), tol=1e-6)


def test_canonicalize_float_root_near_infinity(rng):
    # g0 puts a party-0 pencil root of the pushed GHZ state at x1/x0 = -1/eps,
    # where the affine quadratic formula loses digits to cancellation
    def rand_unitary():
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return np.linalg.qr(m)[0].tolist()

    ghz = to_float(class_catalog(QUBIT3)["GHZ"])
    for eps in (1e-6, 1e-7, 1e-8, 1e-9):
        push = local_operators([[[1, 0.3], [eps, 1]], rand_unitary(), rand_unitary()])
        state = apply_local(ghz, push)
        ops, label = canonicalize_3qubit(state)
        assert label.name == "GHZ"
        out = np.array(apply_local(state, ops).amplitudes)
        rep = np.array(to_float(representative(label)).amplitudes)
        fitted = np.vdot(rep, out) / np.vdot(rep, rep) * rep
        assert np.abs(out - fitted).max() / np.abs(out).max() <= 1e-12


#: Float canonical operators of states with max|a| in [0.5, 1), where 2^-e is 1: the state is used as given
_UNIT_SCALE_OPERATORS = [
    ({(0, 0, 0): 0.375 + 0.375j, (1, 1, 1): 0.25, (0, 1, 1): 0.25}, "GHZ",
     "((((-0.1875-0.1875j), (0.1875+0.1875j)), (0j, (-0.1875-0.1875j))), (((-0+7.111111111111111j), (-0+0j)), "
     "((-0+0j), (-10.666666666666666+10.666666666666666j))), (((1+0j), 0j), (0j, (1+0j))))"),
    ({(0, 1, 1): 0.5, (1, 0, 1): 0.5, (1, 1, 0): 0.5, (1, 1, 1): 0.75}, "W",
     "((((-1.5+0j), (1+0j)), ((2+0j), 0j)), ((0j, (1+0j)), ((2+0j), 0j)), ((0j, (1+0j)), ((2+0j), 0j)))"),
    ({(0, 0, 0): 0.375 + 0.375j, (0, 1, 1): -0.25j}, "B1",
     "((((1.3333333333333333-1.3333333333333333j), 0j), ((-0+0j), (1+0j))), ((-0j, (-1.5+1.5j)), "
     "((1-0j), -0j)), (((1+0j), 0j), (0j, (1+0j))))"),
]


@pytest.mark.parametrize("terms, name, operators", _UNIT_SCALE_OPERATORS)
def test_canonicalize_float_unit_scale_operators_are_unchanged(terms, name, operators):
    ops, label = canonicalize_3qubit(from_terms((2, 2, 2), terms, field_tag="float"))
    assert (label.name, repr(ops.operators)) == (name, operators)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(class_catalog(QUBIT3))), st.integers(0, 2**32 - 1),
       st.sampled_from([sign * k for k in (1, 40, 300, 1000) for sign in (1, -1)]))
def test_canonicalize_float_operators_ignore_a_power_of_two_scale(name, seed, k):
    # the operators are built from 2^-e times the state, so 2^k times it gives them bit for bit
    rep = to_float(class_catalog(QUBIT3)[name])
    state = apply_local(rep, _random_complex_ops(np.random.default_rng(seed), (2, 2, 2)))
    scaled = float_state((2, 2, 2), [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in state.amplitudes])
    (ops, label), (unit_ops, unit) = canonicalize_3qubit(scaled), canonicalize_3qubit(state)
    assert (label, repr(ops.operators)) == (unit, repr(unit_ops.operators))


def test_canonicalize_extension_field_output():
    # a GHZ-class state whose pencil discriminant is not a perfect square
    from onionclass import QuadExt, det3
    from onionclass.scalars import gaussian_sqrt

    state = exact_state((2, 2, 2), [1, 0, 0, 1, 0, 1, 2, 0])
    assert det3(state)
    assert gaussian_sqrt(det3(state)) is None
    ops, label = canonicalize_3qubit(state)
    assert label.name == "GHZ"
    assert any(
        isinstance(entry, QuadExt) for mat in ops.operators for row in mat for entry in row
    )
    assert states_proportional(apply_local(state, ops), representative(label))


def test_degradation_respects_dag(rng):
    for _ in range(40):
        state = random_rational_state((2, 2, 2), int(rng.integers(1 << 30)))
        mats = [rand_invertible(rng, 2) for _ in range(3)]
        mats[int(rng.integers(0, 3))] = rand_singular(rng, 2)
        try:
            degraded = apply_local(state, local_operators(mats))
        except Exception:
            continue
        before = classify(state)
        after = classify(degraded)
        assert after.onion_level >= before.onion_level
        assert reachable(before, after)


def test_boundary_warning_near_class_border():
    eps = 5e-10
    state = from_terms(
        (2, 2, 2),
        {(0, 0, 0): 1.0, (1, 1, 1): eps},
        field_tag="float",
    )
    label = classify(state)
    assert label.diagnostics["boundary_warning"]
    clean = from_terms((2, 2, 2), {(0, 0, 0): 1.0, (1, 1, 1): 1.0}, field_tag="float")
    assert not classify(clean).diagnostics["boundary_warning"]


# float states whose one decisive quantity has normalized magnitude q
_BAND_CASES = {
    "local-rank": lambda q: from_terms((2, 2), {(0, 0): 1.0, (1, 1): q}, field_tag="float"),
    "det3": lambda q: from_terms(
        (2, 2, 2), {(0, 0, 1): 1.0, (0, 1, 0): 1.0, (1, 0, 0): 1.0, (1, 1, 1): q / 4}, field_tag="float"
    ),
    "det322": lambda q: from_terms(
        (3, 2, 2), {(0, 0, 0): 1.0, (1, 0, 1): 1.0, (2, 1, 1): 1.0, (1, 1, 0): q}, field_tag="float"
    ),
    # det4 is about 1.03e-3 delta^2 near the vanishing hyperplane alpha - beta - gamma - delta = 0
    "det4": lambda q: generic4_state(1, 0.5, 0.3, 0.2 - (q / 1.03e-3) ** 0.5, field_tag="float"),
}


@pytest.mark.parametrize("case", _BAND_CASES)
@pytest.mark.parametrize("q, warn", [(5e-11, False), (2e-10, True), (5e-9, True), (2e-8, False)])
def test_boundary_warning_band(case, q, warn):
    # the band is tol/10 < q <= 10 tol at the default tol = 1e-9
    assert classify(_BAND_CASES[case](q)).diagnostics["boundary_warning"] is warn


def test_label_identity():
    a = classify(class_catalog(QUBIT3)["GHZ"])
    b = ClassLabel(QUBIT3, "GHZ", (2, 2, 2), 0, {"extra": 1})
    assert a == b
    assert hash(a) == hash(b)


def _random_complex_ops(rng, fmt):
    return local_operators(
        [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))).tolist() for d in fmt]
    )


def test_float_w4_pushed_is_degenerate(rng):
    w4 = to_float(class_catalog(QUBIT4)["W4"])
    for _ in range(20):
        pushed = apply_local(w4, _random_complex_ops(rng, (2, 2, 2, 2)))
        assert classify(pushed).name == "DEGENERATE4"


_BELL_01_23 = {(0, 0, 0, 0): 1, (0, 0, 1, 1): 1, (1, 1, 0, 0): 1, (1, 1, 1, 1): 1}
_BELL_02_13 = {(0, 0, 0, 0): 1, (0, 1, 0, 1): 1, (1, 0, 1, 0): 1, (1, 1, 1, 1): 1}


def test_degenerate4_cut_rank_in_band_warns():
    # 3e-9 |0110> leaves the 01|23 flattening of Bell x Bell at rank 2, within a decade of tol
    state = from_terms((2, 2, 2, 2), {**_BELL_01_23, (0, 1, 1, 0): 3e-9}, field_tag="float")
    label = classify(state)
    assert label.name == "DEGENERATE4"
    assert label.diagnostics["cut_ranks"][(0, 1)] == 2
    assert label.diagnostics["boundary_warning"] is True


@pytest.mark.parametrize("terms, blocks", [
    ({(0, 0, 0, 1): 1, (0, 0, 1, 0): 1, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1}, ((0, 1, 2, 3),)),
    ({(0, 0, 0, 0): 1, (1, 1, 1, 1): 1}, ((0, 1, 2, 3),)),
    (_BELL_01_23, ((0, 1), (2, 3))),
    (_BELL_02_13, ((0, 2), (1, 3))),
    ({(0, 0, 0, 0): 1, (0, 1, 1, 1): 1}, ((0,), (1, 2, 3))),
    ({(0, 0, 0, 0): 1, (1, 1, 1, 0): 1}, ((0, 1, 2), (3,))),
    ({(0, 0, 0, 0): 1}, ((0,), (1,), (2,), (3,))),
], ids=["W4", "GHZ4", "bell01-bell23", "bell02-bell13", "0-ghz3", "ghz3-0", "product"])
def test_degenerate4_separability_matches_pattern(rng, terms, blocks):
    rep = from_terms((2, 2, 2, 2), terms)
    for _ in range(3):
        pushed = apply_local(rep, local_operators([rand_invertible(rng, 2) for _ in range(4)]))
        for state in (pushed, to_float(pushed)):
            label = classify(state)
            assert label.name == "DEGENERATE4"
            assert list(label.diagnostics["cut_ranks"]) == [
                (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)
            ]
            assert label.diagnostics["separability"] == separability_pattern(state) == blocks


def test_float_format322_pushed_keeps_label(rng):
    for name, rep in class_catalog(FORMAT322).items():
        for _ in range(5):
            pushed = apply_local(to_float(rep), _random_complex_ops(rng, (3, 2, 2)))
            label = classify(pushed)
            assert label.name == name
            assert label.local_ranks == RANKS_BY_NAME[FORMAT322][name]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([(fam, name) for fam in (QUBIT3, FORMAT322, QUBIT4) for name in class_catalog(fam)]),
       st.integers(0, 2**32 - 1), st.sampled_from([sign * k for k in (40, 100, 300, 600, 1000) for sign in (1, -1)]))
def test_float_label_holds_at_every_power_of_two_scale(entry, seed, k):
    # a ray has one class: 2^k times a pushed catalog state, exactly, keeps its label and boundary band
    rep = to_float(class_catalog(entry[0])[entry[1]])
    pushed = apply_local(rep, _random_complex_ops(np.random.default_rng(seed), rep.format))
    amps = pushed.amplitudes
    scaled = float_state(rep.format, [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in amps])
    label, unit = classify(scaled), classify(pushed)
    assert (label.name, label.local_ranks, label.diagnostics["boundary_warning"]) == (
        unit.name, unit.local_ranks, unit.diagnostics["boundary_warning"])


@pytest.mark.parametrize("state, ratio, generic, degenerate", [
    pytest.param(float_state((2, 2, 2), [0, 1, 1, 0, 1, 0, 0, math.ldexp(1.0, -e)]), math.ldexp(4.0, -e), "GHZ", "W",
                 id=f"W+2^-{e}") for e in (600, 1000)] + [
    pytest.param(generic4_state(1.0, 0.5, 0.25, math.ldexp(1.0, -300), "float"), pytest.approx(1.0656631850112581e-184),
                 "GENERIC4", "DEGENERATE4", id="GENERIC4-2^-300"),
    pytest.param(generic4_state(1.0, 0.5, 0.25, math.ldexp(1.0, -600), "float"), math.ulp(0.0),
                 "GENERIC4", "DEGENERATE4", id="GENERIC4-2^-600")])
def test_tiny_nonzero_invariant_is_nonzero_at_tol_0(state, ratio, generic, degenerate):
    # |Det| / max|a|^degree is 4 * 2^-e for W + 2^-e |111> and about 2^-2e for the generic4 family, below the
    # float range when squared, or at 2^-1200 itself (it reads as the least float): at tol 0 only 0 is zero
    assert hyperdet(state).ratio == ratio
    assert (classify(state, 0).name, classify(state).name) == (generic, degenerate)


@pytest.mark.parametrize("entry, exact", [
    pytest.param(classify, False, id="classify"),
    pytest.param(canonicalize_3qubit, False, id="canonicalize_3qubit"),
    pytest.param(local_ranks, False, id="local_ranks"),
    pytest.param(lambda state, tol: ensemble_upper_class(ensemble([(1, state)]), tol), False,
                 id="ensemble_upper_class"),
    pytest.param(lambda state, tol: cut_rank(state, [0], tol), False, id="cut_rank-float"),
    pytest.param(lambda state, tol: cut_rank(state, [0], tol), True, id="cut_rank-exact"),
    pytest.param(lambda state, tol: compress_party(state, 0, tol), False, id="compress_party-float"),
    pytest.param(lambda state, tol: compress_party(state, 0, tol), True, id="compress_party-exact"),
    pytest.param(separability_pattern, False, id="separability_pattern"),
    pytest.param(lambda state, tol: node_test_3qubit(state, 0, tol), False, id="node_test_3qubit"),
    pytest.param(cusp_test_3qubit, False, id="cusp_test_3qubit"),
    pytest.param(lambda state, tol: node_test_322(to_float(class_catalog(FORMAT322)["W"]), tol), False,
                 id="node_test_322"),
    pytest.param(section_flags, False, id="section_flags"),
    pytest.param(lambda state, tol: states_proportional(state, state, tol), False, id="states_proportional"),
    pytest.param(lambda state, tol: ensemble([(0.5, state), (0.5, state)], tol), False, id="ensemble"),
])
@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_library_tolerance_rule(w_state, entry, exact, tol):
    with pytest.raises(DocumentInvalid):
        entry(w_state if exact else to_float(w_state), tol)


def test_core_is_compressed_at_the_decided_party0_rank(spectrum_state, second_svd_routine):
    # party 0 at (1, 0.5, 3e-9) around a random core: the 3x4 flattening's third
    # value reads 3e-10 < tol, so the state is at party-0 rank 2, and so is its core
    state = spectrum_state((3, 2, 2), 0, (1, 0.5, 3e-9))
    second_svd_routine(lambda rows: len(rows) == 3 and len(rows[0]) == 4)
    label = classify(state)
    assert (label.name, label.local_ranks) == ("GHZ", (2, 2, 2))
    core, rank, _ = compress_party(state, 0)
    assert (rank, core.format) == (2, (2, 2, 2))
    assert label.diagnostics["embedded_det"] == det3(core)


def test_format322_core_reuses_the_decided_rank(monkeypatch, rng):
    # one SVD of the 3x4 flattening ranks party 0, one more gives the core's basis
    pushed = apply_local(to_float(class_catalog(FORMAT322)["GHZ"]), _random_complex_ops(rng, (3, 2, 2)))
    real, shapes = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert classify(pushed).name == "GHZ"
    assert shapes.count((3, 4)) == 2


@pytest.mark.parametrize("ranks, name", [((1, 1, 2), "B1"), ((2, 1, 1), "B2"), ((1, 1, 1), "S")])
def test_format322_rank_one_party_names_the_class(monkeypatch, ranks, name):
    # ranks no exact state has, as float ranks inside the zero band can read
    monkeypatch.setattr(Decisions, "local_ranks", lambda self, state: ranks)
    label = classify(to_float(class_catalog(FORMAT322)["GHZ"]))
    assert label.name == name
    assert ("embedded_det" in label.diagnostics) is (ranks[0] == 2)


def _fresh(state):
    """An equal state object that has computed nothing yet."""
    return type(state)(state.format, state.amplitudes, state.field_tag)


def _decided(label):
    return label, repr(label.diagnostics)


def _states_kept_decided(spectrum_state):
    # the last one's party-2 ratio 3e-9 is in the band at tol 1e-9 and below tol/10 at 1e-3
    return [class_catalog(QUBIT3)["W"], class_catalog(FORMAT322)["DEG322"], class_catalog(QUBIT4)["W4"],
            random_state((2, 2, 2), 3), random_state((3, 2, 2), 4), random_state((2, 2, 2, 2), 5),
            spectrum_state((2, 2, 2), 2, (1, 3e-9))]


def test_kept_decisions_leave_equality_hash_and_repr_alone(spectrum_state):
    for state in _states_kept_decided(spectrum_state):
        before = (hash(state), repr(state))
        classify(state)
        fresh = _fresh(state)
        assert state == fresh and (hash(state), repr(state)) == before == (hash(fresh), repr(fresh))


def test_kept_decisions_apply_each_tolerance_afresh(spectrum_state):
    states = _states_kept_decided(spectrum_state)
    labels = [[_decided(classify(state, tol)) for tol in (1e-9, 1e-3, 1e-9)] for state in states]
    assert labels == [[_decided(classify(_fresh(state), tol)) for tol in (1e-9, 1e-3, 1e-9)] for state in states]
    band = labels[-1]
    assert band[0][0].diagnostics["boundary_warning"] and not band[1][0].diagnostics["boundary_warning"]
    assert band[0][0].local_ranks == (2, 2, 2) and band[1][0].name == "B3"
    for state in states:
        with pytest.raises(BadCut):
            cut_rank(state, range(state.n_parties))


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_a_state_is_decomposed_once(monkeypatch, mode):
    # classify, hyperdet and canonicalize_3qubit on one state: each local rank and det3 once
    state = random_state((2, 2, 2), 7) if mode == "float" else random_rational_state((2, 2, 2), 7)
    counts = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    rank = "singular_values" if mode == "float" else "exact_rank"
    counted(linalg, rank)
    counted(importlib.import_module("onionclass.hyperdet"), "det3")
    label = classify(state)
    assert hyperdet(state).value == label.diagnostics["det"]
    assert canonicalize_3qubit(state)[1] == label
    assert counts == {rank: 3, "det3": 1}
