import math

import numpy as np
import pytest

from onionclass import float_state, from_terms, linalg


@pytest.fixture
def ghz():
    return from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})


@pytest.fixture
def w_state():
    return from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)


@pytest.fixture
def spectrum_state(rng):
    """A float state whose flattening on `party` is U diag(s) V^H, U and V^H seeded random isometries."""
    def build(fmt, party, s):
        rows, cols = fmt[party], math.prod(fmt) // fmt[party]
        u = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, rows)) + 1j * rng.standard_normal((cols, rows)))[0]
        m = (u * np.asarray(s)) @ v.conj().T
        others = [d for p, d in enumerate(fmt) if p != party]
        amps = np.moveaxis(m.reshape([rows] + others), 0, party).ravel()
        return float_state(fmt, amps.tolist())
    return build


@pytest.fixture
def second_svd_routine(monkeypatch):
    """Make linalg.singular_values read the smallest singular value 10x smaller on the matrices `when` picks.

    It stands for a second SVD routine whose rounding puts a ratio near tol on
    the other side of it, so a rank decided twice can disagree with itself.
    """
    def install(when):
        real = linalg.singular_values

        def patched(rows):
            sv = real(rows)
            if when(rows):
                sv = sv.copy()
                sv[-1] /= 10
            return sv
        monkeypatch.setattr(linalg, "singular_values", patched)
    return install
