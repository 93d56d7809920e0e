from fractions import Fraction

import numpy as np
import pytest

from onionclass import (
    EmptyEnsemble,
    SizeMismatch,
    UnsupportedFormat,
    apply_local,
    density_matrix,
    ensemble,
    ensemble_upper_class,
    from_terms,
    local_operators,
)
from onionclass.classify import QUBIT3, class_catalog
from onionclass.scalars import GaussianRational as GR
from onionclass.selftest import rand_invertible

HALF = Fraction(1, 2)


def _cat():
    return class_catalog(QUBIT3)


def test_ladder_fixtures(ghz, w_state):
    ens = ensemble([(HALF, ghz), (HALF, w_state)])
    assert ensemble_upper_class(ens).name == "GHZ-class"
    products = ensemble(
        [
            (HALF, from_terms((2, 2, 2), {(0, 0, 0): 1})),
            (HALF, from_terms((2, 2, 2), {(1, 1, 1): 1})),
        ]
    )
    assert ensemble_upper_class(products).name == "separable-class"
    bisep = ensemble(
        [
            (Fraction(3, 10), from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1})),
            (Fraction(7, 10), from_terms((2, 2, 2), {(0, 1, 0): 1, (1, 0, 0): 1})),
        ]
    )
    assert ensemble_upper_class(bisep).name == "biseparable-class"
    assert ensemble_upper_class(bisep).bound_kind == "upper-bound"


def test_ensemble_validation(ghz):
    with pytest.raises(EmptyEnsemble):
        ensemble([])
    with pytest.raises(SizeMismatch):
        ensemble([(Fraction(1, 2), ghz)])
    with pytest.raises(SizeMismatch):
        ensemble([(Fraction(-1, 2), ghz), (Fraction(3, 2), ghz)])
    with pytest.raises(SizeMismatch):
        ensemble([(float("nan"), ghz)])
    with pytest.raises(SizeMismatch):
        ensemble([(HALF, ghz), (HALF, from_terms((2, 2), {(0, 0): 1}))])
    with pytest.raises(UnsupportedFormat):
        ensemble_upper_class(ensemble([(Fraction(1), from_terms((2, 2), {(0, 0): 1}))]))


def test_monotone_in_members(ghz):
    base = [(HALF, from_terms((2, 2, 2), {(0, 0, 0): 1})), (HALF, from_terms((2, 2, 2), {(1, 1, 1): 1}))]
    low = ensemble_upper_class(ensemble(base))
    rebalanced = [(Fraction(1, 4), s) for _, s in base] + [(HALF, ghz)]
    high = ensemble_upper_class(ensemble(rebalanced))
    assert low.rank <= high.rank


def test_invariant_under_uniform_invertible(rng, ghz, w_state):
    members = [(HALF, ghz), (HALF, w_state)]
    before = ensemble_upper_class(ensemble(members)).name
    for _ in range(5):
        ops = local_operators([rand_invertible(rng, 2) for _ in range(3)])
        moved = [(w, apply_local(s, ops)) for w, s in members]
        assert ensemble_upper_class(ensemble(moved)).name == before


def test_density_matrix_exact(ghz):
    single = ensemble([(Fraction(1), ghz)])
    rho = density_matrix(single)
    assert rho[0][0] == GR(Fraction(1, 2))
    assert rho[0][7] == GR(Fraction(1, 2))
    assert sum((rho[i][i] for i in range(8)), GR(0)) == GR(1)
    # normalization happens inside the projector, so scaling members is moot
    doubled = ensemble([(Fraction(1), from_terms((2, 2, 2), {(0, 0, 0): 2, (1, 1, 1): 2}))])
    rho2 = density_matrix(doubled)
    assert all(rho[i][j] == rho2[i][j] for i in range(8) for j in range(8))


def test_density_matrix_float_psd(rng, ghz, w_state):
    rho = density_matrix(ensemble([(0.5, ghz), (0.5, w_state)]))
    assert np.allclose(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_equal_rho_different_labels():
    diagonal = ensemble(
        [
            (HALF, from_terms((2, 2, 2), {(0, 0, 0): 1})),
            (HALF, from_terms((2, 2, 2), {(1, 1, 1): 1})),
        ]
    )
    ghz_pair = ensemble(
        [
            (HALF, from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})),
            (HALF, from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): -1})),
        ]
    )
    rho_a = density_matrix(diagonal)
    rho_b = density_matrix(ghz_pair)
    assert all(rho_a[i][j] == rho_b[i][j] for i in range(8) for j in range(8))
    assert ensemble_upper_class(diagonal).name == "separable-class"
    assert ensemble_upper_class(ghz_pair).name == "GHZ-class"
