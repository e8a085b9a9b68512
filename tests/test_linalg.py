"""Stacked kernels against one-matrix-at-a-time calls: same bits, same errors."""

import numpy as np
import pytest

from cqbounds import DensityMatrix, DomainError, ValidationError
from cqbounds import _linalg as la
from cqbounds.operators import (
    apply_kraus,
    density_stack,
    random_channel_kraus,
    random_channel_kraus_stack,
    random_density,
    random_density_stack,
    random_psd,
    random_psd_stack,
)

EXPONENTS = (0.5, -1.0, 2.0, 0.37)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _psd_stack(dim, count, seed, rank_deficient=()):
    """Random PSD matrices; members listed in ``rank_deficient`` lose a direction."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    for k in rank_deficient:
        g[k, :, 0] = 0.0
    return g @ np.swapaxes(g.conj(), -1, -2) / dim


def _powm_reference(a, r, tol=1e-12):
    """The one-matrix formula written out: a scalar exponent on the kept
    eigenvalues."""
    w, v = np.linalg.eigh(a)
    w = np.maximum(w, 0.0)
    pw = np.zeros_like(w)
    pw[w > tol] = w[w > tol] ** r
    return (v * pw) @ v.conj().T


def _logm_reference(a, tol=1e-12):
    w, v = np.linalg.eigh(a)
    lw = np.where(w > tol, np.log(np.maximum(w, tol)), 0.0)
    return (v * lw) @ v.conj().T


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("r", EXPONENTS)
def test_stacked_powm_matches_single_calls(dim, r):
    a = _psd_stack(dim, 25, seed=dim, rank_deficient=(3, 11))
    stacked = la.powm_psd(a, r)
    for k in range(a.shape[0]):
        assert _bits(stacked[k]) == _bits(la.powm_psd(a[k], r))
        assert _bits(stacked[k]) == _bits(_powm_reference(a[k], r))


def test_stacked_powm_with_one_exponent_per_member():
    a = _psd_stack(3, 24, seed=5, rank_deficient=(7,))
    r = np.array([EXPONENTS[k % len(EXPONENTS)] for k in range(a.shape[0])])
    stacked = la.powm_psd(a, r)
    for k in range(a.shape[0]):
        assert _bits(stacked[k]) == _bits(la.powm_psd(a[k], float(r[k])))
        assert _bits(stacked[k]) == _bits(_powm_reference(a[k], float(r[k])))


@pytest.mark.parametrize("restricted", [False, True])
def test_stacked_logm_matches_single_calls(restricted):
    a = _psd_stack(3, 20, seed=8, rank_deficient=(2, 9) if restricted else ())
    stacked = la.logm_psd(a, restricted=restricted)
    for k in range(a.shape[0]):
        assert _bits(stacked[k]) == _bits(la.logm_psd(a[k], restricted=restricted))
        assert _bits(stacked[k]) == _bits(_logm_reference(a[k]))


def test_stacked_hermitize_and_traces_match_single_calls():
    a = _psd_stack(4, 15, seed=3) + 1e-12j * np.random.default_rng(4).normal(size=(15, 4, 4))
    stacked = la.hermitize(a)
    b = la.expm_herm(stacked)
    tr = la.trace_real(b)
    inner = la.inner_real(stacked, b)
    for k in range(a.shape[0]):
        assert _bits(stacked[k]) == _bits(la.hermitize(a[k]))
        assert tr[k] == la.trace_real(b[k])
        assert inner[k] == la.inner_real(stacked[k], b[k])


def test_stacked_density_validation_matches_density_matrix():
    a = _psd_stack(3, 12, seed=6)
    a /= np.trace(a, axis1=-2, axis2=-1).real[:, None, None]
    # one member with an eigenvalue inside the clip band [-1e-10, 0)
    w, v = np.linalg.eigh(a[5])
    w[0] = -5e-11
    w[1:] += (1.0 - w.sum()) / 2
    a[5] = (v * w) @ v.conj().T
    stacked = density_stack(a)
    for k in range(a.shape[0]):
        single = DensityMatrix(a[k])
        assert _bits(stacked[k]) == _bits(single.entries)
    assert DensityMatrix(a[5]).min_eig == 0.0


def _single_error(fn, member):
    with pytest.raises((ValidationError, DomainError)) as info:
        fn(member)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("defect", ["non-hermitian", "non-psd", "trace"])
def test_stack_with_one_bad_member_raises_the_single_error(defect):
    a = _psd_stack(2, 6, seed=9)
    a /= np.trace(a, axis1=-2, axis2=-1).real[:, None, None]
    bad = a[4].copy()
    if defect == "non-hermitian":
        bad[0, 1] += 1e-6
    elif defect == "non-psd":
        bad = np.diag([1.2, -0.2]).astype(complex)
    else:
        bad = bad * 1.01
    a[4] = bad
    want = _single_error(DensityMatrix, bad)
    with pytest.raises(want[0]) as info:
        density_stack(a)
    assert str(info.value) == want[1]
    if defect == "non-hermitian":
        fns = [la.hermitize]
    elif defect == "non-psd":
        fns = [lambda m: la.powm_psd(m, 0.5), lambda m: la.logm_psd(m)]
    else:
        fns = []
    for fn in fns:
        want = _single_error(fn, bad)
        with pytest.raises(want[0]) as info:
            fn(a)
        assert str(info.value) == want[1]


def test_stacked_draws_match_single_draws():
    seeds = [11, 12, 13, 14]
    dens = random_density_stack(3, seeds, min_eig_floor=0.05)
    psd = random_psd_stack(3, seeds, min_eig_floor=0.1)
    kraus = random_channel_kraus_stack(2, 2, 2, seeds)
    out = apply_kraus(random_density_stack(2, seeds), kraus)
    for k, seed in enumerate(seeds):
        assert _bits(dens[k]) == _bits(random_density(3, seed, min_eig_floor=0.05).entries)
        assert _bits(psd[k]) == _bits(random_psd(3, seed, min_eig_floor=0.1).entries)
        single_kraus = random_channel_kraus(2, 2, 2, seed)
        assert all(_bits(kraus[k, e]) == _bits(single_kraus[e]) for e in range(2))
        assert _bits(out[k]) == _bits(apply_kraus(random_density(2, seed), single_kraus))
