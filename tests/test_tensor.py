import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onionclass import (
    BadCut,
    BadDimension,
    FormatMismatch,
    NotBipartite,
    SizeMismatch,
    ZeroState,
    apply_local,
    cut_rank,
    exact_state,
    flatten,
    float_state,
    from_terms,
    local_operators,
    local_ranks,
    new_state,
    product_vector,
    random_state,
    schmidt_coefficients,
    separability_pattern,
    states_proportional,
    to_float,
)
from onionclass.errors import DocumentInvalid
from onionclass.scalars import GaussianRational as GR, QuadExt
from onionclass.selftest import rand_invertible, rand_singular
from onionclass.oracle import random_rational_state
from onionclass.classify import RANKS_BY_NAME, class_catalog, classify
from onionclass.tensor import bipartitions, compress_party, mode_product


def test_new_state_validation():
    with pytest.raises(ZeroState):
        exact_state((2, 2), [0, 0, 0, 0])
    with pytest.raises(FormatMismatch):
        exact_state((2, 2, 2), [1] * 7)
    with pytest.raises(BadDimension):
        exact_state((1, 2), [1, 2])


def test_amplitude_order_last_index_fastest():
    state = exact_state((2, 2, 2), range(1, 9))
    assert state.amplitude((0, 0, 0)) == GR(1)
    assert state.amplitude((0, 0, 1)) == GR(2)
    assert state.amplitude((0, 1, 0)) == GR(3)
    assert state.amplitude((1, 0, 0)) == GR(5)


def test_flatten_ghz_and_w(ghz, w_state):
    assert flatten(ghz, [0]) == [
        [GR(1), GR(0), GR(0), GR(0)],
        [GR(0), GR(0), GR(0), GR(1)],
    ]
    assert flatten(w_state, [0]) == [
        [GR(0), GR(1), GR(1), GR(0)],
        [GR(1), GR(0), GR(0), GR(0)],
    ]


def test_flatten_322_boundary_rows():
    state = from_terms((3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 1, 1): 1})
    assert flatten(state, [0]) == [
        [GR(1), GR(0), GR(0), GR(0)],
        [GR(0), GR(1), GR(1), GR(0)],
        [GR(0), GR(0), GR(0), GR(1)],
    ]


def test_flatten_bad_cut(ghz):
    with pytest.raises(BadCut):
        flatten(ghz, [])
    with pytest.raises(BadCut):
        flatten(ghz, [0, 1, 2])


def test_cut_rank_examples(ghz):
    assert cut_rank(ghz, [0]) == 2
    assert cut_rank(from_terms((2, 2, 2), {(0, 0, 0): 1}), [1]) == 1
    state = from_terms((3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (2, 1, 1): 1})
    assert cut_rank(state, [0]) == 3


def test_cut_rank_complement_symmetry(rng):
    for fmt in [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]:
        state = random_rational_state(fmt, int(rng.integers(1 << 30)))
        n = len(fmt)
        for r in range(1, n):
            for cut in itertools.combinations(range(n), r):
                comp = tuple(p for p in range(n) if p not in cut)
                assert cut_rank(state, cut) == cut_rank(state, comp)


def test_rank_invariant_under_invertible_and_monotone_under_singular(rng):
    for _ in range(20):
        state = random_rational_state((2, 2, 2), int(rng.integers(1 << 30)))
        inv = local_operators([rand_invertible(rng, 2) for _ in range(3)])
        moved = apply_local(state, inv)
        for p in range(3):
            assert cut_rank(moved, [p]) == cut_rank(state, [p])
        sing = local_operators(
            [rand_singular(rng, 2), rand_invertible(rng, 2), rand_invertible(rng, 2)]
        )
        try:
            degraded = apply_local(state, sing)
        except ZeroState:
            continue
        for p in range(3):
            assert cut_rank(degraded, [p]) <= cut_rank(state, [p])


def test_rank_invariance_float_mode(rng):
    for _ in range(15):
        state = random_state((2, 2, 2), int(rng.integers(1 << 30)))
        mats = [
            (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))).tolist()
            for _ in range(3)
        ]
        if min(abs(np.linalg.det(np.array(m))) for m in mats) < 1e-9:
            continue
        moved = apply_local(state, local_operators(mats))
        for p in range(3):
            assert cut_rank(moved, [p]) == cut_rank(state, [p])
        projector = local_operators([[[1, 0], [0, 0]], mats[1], mats[2]])
        degraded = apply_local(state, projector)
        for p in range(3):
            assert cut_rank(degraded, [p]) <= cut_rank(state, [p])


def test_exact_and_float_ranks_agree(rng):
    # one float rank rule, Decisions.rank, behind cut_rank, classify's local ranks and compress_party
    formats = {
        (2, 2, 2): [(0,), (1,), (2,)],
        (3, 2, 2): [(0,), (1,), (2,), (0, 1), (0, 2)],
        (2, 2, 2, 2): [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)],
    }
    for fmt, cuts in formats.items():
        for _ in range(25):
            state = random_rational_state(fmt, int(rng.integers(1 << 30)))
            ops = [rand_singular(rng, d) if rng.random() < 0.4 else rand_invertible(rng, d) for d in fmt]
            try:
                state = apply_local(state, local_operators(ops))
            except ZeroState:
                continue
            floated = to_float(state)
            for cut in cuts:
                assert cut_rank(state, cut) == cut_rank(floated, cut)
            exact_ranks = local_ranks(state)
            assert classify(floated).local_ranks == exact_ranks
            assert compress_party(floated, 0)[1] == exact_ranks[0]


def _compressed(state, tol):
    reduced, rank, _ = compress_party(state, 0, tol)
    return reduced.format, len(reduced.amplitudes), rank


_HALF_BELL = from_terms((2, 2), {(0, 0): 1.0, (1, 1): 0.5}, field_tag="float")


@pytest.mark.parametrize("query, state, expected", [
    (local_ranks, _HALF_BELL, (1, 1)),
    (separability_pattern, _HALF_BELL, ((0,), (1,))),
    (_compressed, random_state((3, 2, 2), 5), ((2, 2), 4, 1)),
], ids=["local_ranks", "separability_pattern", "compress_party"])
def test_float_rank_at_unit_tol(query, state, expected):
    # the largest singular value counts whenever it is nonzero, so no nonzero flattening has rank 0
    assert query(state, 1.0) == expected


def test_flatten_unflatten_roundtrip(rng):
    # unequal dimensions and a 5-party format expose stride and ordering mistakes;
    # unsorted and repeated parties name the sorted cut
    cases = {
        (2, 2, 2, 2): [(0,), (1,), (0, 2), (1, 3)],
        (3, 2, 2): [(0,), (2,), (1, 2), (2, 0), (1, 1)],
        (2, 3, 2): [(1,), (0, 2), (2, 1), (1, 1)],
        (3, 2, 4): [(0,), (2,), (0, 1), (2, 0), (1, 1)],
        (2, 3, 2, 2, 3): [(1,), (4,), (1, 3), (4, 0, 2), (3, 1, 3)],
    }
    for seed, (fmt, cuts) in enumerate(cases.items(), 99):
        state = random_rational_state(fmt, seed)
        n = len(fmt)
        for parties in cuts:
            rows = flatten(state, parties)
            cut = sorted(set(parties))
            rest = tuple(p for p in range(n) if p not in cut)
            row_dims = [fmt[p] for p in cut]
            col_dims = [fmt[p] for p in rest]
            assert len(rows) == math.prod(row_dims)
            assert all(len(row) == math.prod(col_dims) for row in rows)
            rebuilt = {}
            for ri, row_idx in enumerate(itertools.product(*(range(d) for d in row_dims))):
                for ci, col_idx in enumerate(itertools.product(*(range(d) for d in col_dims))):
                    multi = [0] * n
                    for p, i in zip(cut, row_idx):
                        multi[p] = i
                    for p, i in zip(rest, col_idx):
                        multi[p] = i
                    rebuilt[tuple(multi)] = rows[ri][ci]
            for multi in itertools.product(*(range(d) for d in fmt)):
                assert rebuilt[multi] == state.amplitude(multi)


def test_schmidt_float_bell_and_product():
    bell = float_state((2, 2), [2**-0.5, 0, 0, 2**-0.5])
    np.testing.assert_allclose(schmidt_coefficients(bell), [2**-0.5, 2**-0.5])
    prod = float_state((2, 2), [1, 0, 0, 0])
    np.testing.assert_allclose(schmidt_coefficients(prod), [1.0, 0.0])


def test_schmidt_exact_modes():
    # irrational spectrum comes back as floats from the exact gram matrix
    squared = schmidt_coefficients(exact_state((2, 2), [1, 2, 3, 4]))
    np.testing.assert_allclose(squared, [15 + math.sqrt(221), 15 - math.sqrt(221)])
    # rational spectrum stays exact
    squared = schmidt_coefficients(exact_state((2, 2), [1, 0, 0, 2]))
    assert squared == (Fraction(4), Fraction(1))
    with pytest.raises(NotBipartite):
        schmidt_coefficients(exact_state((2, 2, 2), [1] + [0] * 7))


def test_schmidt_count_matches_rank(rng):
    for _ in range(10):
        state = random_state((3, 3), int(rng.integers(1 << 30)))
        values = schmidt_coefficients(state)
        above = sum(1 for v in values if v > 1e-9 * values[0])
        assert above == cut_rank(state, [0])


def test_apply_local_examples(ghz):
    ident = [[1, 0], [0, 1]]
    same = apply_local(ghz, local_operators([ident] * 3))
    assert same.amplitudes == ghz.amplitudes
    mixed = apply_local(ghz, local_operators([[[1, 1], [1, -1]], ident, ident]))
    expect = from_terms((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 0): 1, (1, 1, 1): -1})
    assert mixed.amplitudes == expect.amplitudes
    projected = apply_local(ghz, local_operators([[[1, 0], [0, 0]], ident, ident]))
    assert projected.amplitudes == from_terms((2, 2, 2), {(0, 0, 0): 1}).amplitudes


def test_apply_local_overflow_is_document_invalid(ghz):
    huge = local_operators([[[1e200, 0], [0, 1e200]]] * 3)
    with pytest.raises(DocumentInvalid):
        apply_local(to_float(ghz), huge)


def test_apply_local_zero_state(ghz):
    kill = [[0, 0], [0, 0]]
    ident = [[1, 0], [0, 1]]
    with pytest.raises(ZeroState):
        apply_local(ghz, local_operators([kill, ident, ident]))
    with pytest.raises(SizeMismatch):
        apply_local(ghz, local_operators([ident, ident]))


def test_separability_pattern_examples(ghz):
    assert separability_pattern(from_terms((2, 2, 2), {(0, 0, 0): 1})) == ((0,), (1,), (2,))
    b1 = from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1})
    assert separability_pattern(b1) == ((0,), (1, 2))
    assert separability_pattern(ghz) == ((0, 1, 2),)


def test_separability_invariant_under_invertible(rng):
    b2 = from_terms((2, 2, 2), {(0, 0, 1): 1, (1, 0, 0): 1})
    for _ in range(10):
        ops = local_operators([rand_invertible(rng, 2) for _ in range(3)])
        assert separability_pattern(apply_local(b2, ops)) == separability_pattern(b2)


def test_random_state_determinism():
    a = random_state((2, 2, 2), 7)
    b = random_state((2, 2, 2), 7)
    assert a.amplitudes == b.amplitudes
    assert random_state((2, 2, 2), 8).amplitudes != a.amplitudes
    with pytest.raises(BadDimension):
        random_state((1, 2), 7)
    assert abs(sum(abs(x) ** 2 for x in a.amplitudes) - 1) < 1e-12


def test_product_vector_projective_equality():
    a = product_vector([(GR(1), GR(2)), (GR(0), GR(1))])
    b = product_vector([(GR(2), GR(4)), (GR(0), GR(-3))])
    assert a == b
    c = product_vector([(GR(1), GR(3)), (GR(0), GR(1))])
    assert a != c
    with pytest.raises(SizeMismatch):
        product_vector([(GR(0), GR(0)), (GR(1), GR(0))])


def test_states_proportional(ghz):
    doubled = new_state((2, 2, 2), [a * GR(0, 2) for a in ghz.amplitudes])
    assert states_proportional(doubled, ghz)
    assert not states_proportional(ghz, from_terms((2, 2, 2), {(0, 0, 0): 1}))


@pytest.mark.parametrize("a, b, equal", [
    # the float ratio is read at b's largest entry, not at its first nonzero one
    ([0.0, 2.0, 0.0, 0.0], [1e-12, 1.0, 0.0, 0.0], True),
    ([1.0, 0.0, 0.0, 0.0], [1e-12, 1.0, 0.0, 0.0], False),
    # a_3 - 2 b_3 against 10 tol (max|a| + |2 b_3|) = 2.25e-8
    ([2.0, 1.0, 0.5, 0.25 + 0.9 * 2.25e-8], [1.0, 0.5, 0.25, 0.125], True),
    ([2.0, 1.0, 0.5, 0.25 + 1.1 * 2.25e-8], [1.0, 0.5, 0.25, 0.125], False),
])
def test_float_ray_equality_pivot_and_edge(a, b, equal):
    assert states_proportional(float_state((2, 2), a), float_state((2, 2), b)) is equal
    assert (product_vector([a]) == product_vector([b])) is equal


def _kron(a, b):
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def test_apply_local_matches_kronecker(rng):
    for fmt in [(2, 3), (3, 2, 2), (2, 2, 2, 2)]:
        state = random_rational_state(fmt, int(rng.integers(1 << 30)))
        mats = [rand_invertible(rng, d) for d in fmt]
        big = functools.reduce(_kron, mats)
        expect = [sum((g * a for g, a in zip(row, state.amplitudes)), GR(0)) for row in big]
        assert list(apply_local(state, local_operators(mats)).amplitudes) == expect

        state = random_state(fmt, int(rng.integers(1 << 30)))
        mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in fmt]
        expect = functools.reduce(np.kron, mats) @ np.array(state.amplitudes)
        got = np.array(apply_local(state, local_operators([m.tolist() for m in mats])).amplitudes)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
    # party 0 projected off the only index the state uses
    state = from_terms((3, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 2})
    ident = [[1, 0], [0, 1]]
    with pytest.raises(ZeroState):
        apply_local(state, local_operators([[[0, 0, 0], [0, 1, 0], [0, 0, 1]], ident, ident]))


def test_compress_party_pushed_322(rng):
    ident = [[1, 0], [0, 1]]
    for name, rep in class_catalog("format322").items():
        expected_rank = RANKS_BY_NAME["format322"][name][0]
        for exact in (True, False):
            if exact:
                state = apply_local(rep, local_operators([rand_invertible(rng, d) for d in (3, 2, 2)]))
            else:
                mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (3, 2, 2)]
                state = apply_local(to_float(rep), local_operators([m.tolist() for m in mats]))
            reduced, rank, transform = compress_party(state, 0)
            assert rank == expected_rank
            assert reduced.format == ((2, 2) if rank == 1 else (rank, 2, 2))
            assert reduced.field_tag == state.field_tag
            rotated = apply_local(state, local_operators([transform, ident, ident])).amplitudes
            kept, dropped = rotated[: 4 * rank], rotated[4 * rank:]
            if exact:
                assert reduced.amplitudes == kept
                assert not any(dropped)
            else:
                scale = state.scale()
                assert np.allclose(reduced.amplitudes, kept, rtol=0, atol=1e-12 * scale)
                assert np.allclose(dropped, 0, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bipartitions_name_each_cut_once(n):
    cuts = bipartitions(n)
    assert len(cuts) == 2 ** (n - 1) - 1
    sides = {frozenset([cut, tuple(p for p in range(n) if p not in cut)]) for cut in cuts}
    assert len(sides) == len(cuts)
    assert all(2 * len(cut) < n or (2 * len(cut) == n and cut[0] == 0) for cut in cuts)
    singletons = [(p,) for p in range(n if n > 2 else 1)]
    assert cuts[:len(singletons)] == singletons
    assert [len(cut) for cut in cuts] == sorted(len(cut) for cut in cuts)
    if n == 4:
        assert cuts == [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("fmt", [(2, 2, 2), (2, 2, 2, 2)])
def test_separability_pattern_agrees_with_local_ranks(fmt, spectrum_state, second_svd_routine):
    # the last party's 2 x 2^(n-1) flattening has ratio 3e-9 > tol; its tall
    # transpose would read 3e-10 < tol, so a second ranking of it would split the party off
    n = len(fmt)
    state = spectrum_state(fmt, n - 1, (1, 3e-9))
    second_svd_routine(lambda rows: len(rows) > len(rows[0]))
    assert local_ranks(state) == (2,) * n
    assert separability_pattern(state) == (tuple(range(n)),)


# --- mode_product against a direct sum over multi-indices ---------------------

_props = settings(derandomize=True, max_examples=100, deadline=None)
_gaussians = st.builds(lambda a, b, c, e: GR(Fraction(a, c), Fraction(b, e)),
                       st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 6), st.integers(1, 6))


def _direct_mode_product(amps, fmt, party, matrix):
    """b[.., i, ..] = sum_j matrix[i][j] a[.., j, ..], one multi-index at a time."""
    def offset(index, dims):
        return functools.reduce(lambda off, di: off * di[0] + di[1], zip(dims, index), 0)
    out_fmt = fmt[:party] + (len(matrix),) + fmt[party + 1:]
    out = []
    for index in itertools.product(*map(range, out_fmt)):
        terms = [matrix[index[party]][j] * amps[offset(index[:party] + (j,) + index[party + 1:], fmt)]
                 for j in range(fmt[party])]
        out.append(sum(terms[1:], terms[0]))
    return tuple(out)


@st.composite
def _contractions(draw):
    """Amplitudes, format, party, and a matrix of 1 to 3 rows, square or not (a compression's rows)."""
    fmt = draw(st.sampled_from([(2, 2), (2, 3), (3, 2, 2), (2, 2, 2), (2, 2, 2, 2)]))
    party = draw(st.integers(0, len(fmt) - 1))
    amps = tuple(draw(st.lists(_gaussians, min_size=math.prod(fmt), max_size=math.prod(fmt))))
    n_rows = draw(st.integers(1, 3))
    matrix = [draw(st.lists(_gaussians, min_size=fmt[party], max_size=fmt[party])) for _ in range(n_rows)]
    return amps, fmt, party, matrix


@_props
@given(_contractions())
def test_mode_product_matches_direct_sum(case):
    out = mode_product(*case)
    assert all(isinstance(x, GR) for x in out)
    assert out == _direct_mode_product(*case)


def test_mode_product_over_the_extension_field():
    rad, fmt = GR(2), (2, 2, 2)
    amps = tuple(GR(k, 1 - k) for k in range(8))
    matrix = [[QuadExt(0, 1, rad), QuadExt(1, 0, rad)], [QuadExt(GR(0, 1), 0, rad), QuadExt(2, -1, rad)]]
    # an extension scalar among the amplitudes or in the matrix takes the generic loop
    for a, m in [(amps, matrix), ((QuadExt(1, 1, rad),) + amps[1:], [[GR(1), GR(2, 1)], [GR(0), GR(-1)]])]:
        for party in range(3):
            out = mode_product(a, fmt, party, m)
            assert any(isinstance(x, QuadExt) for x in out)
            assert out == _direct_mode_product(a, fmt, party, m)
