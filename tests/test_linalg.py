"""Stacked kernels against one-matrix-at-a-time calls: same bits, same errors."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import cqbounds
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


def test_kron_pairs_match_np_kron():
    a = _psd_stack(2, 5, seed=14)
    b = _psd_stack(3, 5, seed=15)
    got = la.kron_pairs(a, b)
    for k in range(a.shape[0]):
        assert _bits(got[k]) == _bits(np.kron(a[k], b[k]))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs the Linux /proc task list")
def test_blas_starts_no_worker_threads():
    # the package pins OPENBLAS_NUM_THREADS to 1; that holds only when it is
    # imported before numpy loads BLAS, as tests/conftest.py does
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        pytest.skip("OPENBLAS_NUM_THREADS is set to another value in the environment")
    np.linalg.eigh(_psd_stack(200, 1, seed=16)[0])
    native = len(os.listdir("/proc/self/task")) - threading.active_count()
    assert native == 0


def test_import_pins_blas_threads_whatever_the_environment():
    # a child whose environment asks for 4 BLAS threads must see 1 after
    # importing cqbounds, so BLAS (loaded by that import) runs on one thread
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cqbounds.__file__)))
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    names = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
    env = dict(os.environ, PYTHONPATH=pythonpath, **{name: "4" for name in names})
    code = f"import os, cqbounds; print(*(os.environ[v] for v in {names!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]


def test_blas_pin_holds_when_numpy_is_imported_first():
    """A program that loads OpenBLAS (through numpy) under
    OPENBLAS_NUM_THREADS=4 before importing cqbounds gets the single-thread
    bits: cqbounds sets the bundled OpenBLAS copies to one thread at run time."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cqbounds.__file__)))
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    code = ("import numpy, scipy.linalg\n"
            "from cqbounds import verify\n"
            "print(repr(verify.run_suite('single-letter', 7).rows[0][6]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "-0.00756397426916669"


# a Neyman-Pearson solve whose alternative has a kernel: the only path that
# loads scipy (``scipy.linalg.eig`` on the singular pencils)
_SINGULAR_ALTERNATIVE_BETA = """
import numpy as np
from cqbounds import DensityMatrix, neyman_pearson_beta, random_density
w, v = np.linalg.eigh(random_density(3, 203, min_eig_floor=0.02).entries)
w[0] = 0.0
rho1 = DensityMatrix((v * (w / w.sum())) @ v.conj().T)
beta = neyman_pearson_beta(random_density(3, 103, min_eig_floor=0.02), rho1, 0.3)[0]
"""


def test_blas_pin_holds_for_scipy_loaded_after_cqbounds():
    """scipy's bundled OpenBLAS, set to one thread when cqbounds is imported
    under OPENBLAS_NUM_THREADS=4, still runs one thread after the
    rank-deficient solve imports scipy.linalg, and gives this process's bits."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cqbounds.__file__)))
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    code = ("import ctypes, glob, os, sys\n"
            "import cqbounds\n"
            "assert 'scipy' not in sys.modules\n"
            + _SINGULAR_ALTERNATIVE_BETA +
            "import scipy\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "libs = os.path.join(os.path.dirname(scipy.__path__[0]), 'scipy.libs')\n"
            "(lib,) = glob.glob(os.path.join(libs, 'libscipy_openblas*.so'))\n"
            "print(ctypes.CDLL(lib).scipy_openblas_get_num_threads(), repr(beta))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    scope = {}
    exec(_SINGULAR_ALTERNATIVE_BETA, scope)
    assert proc.stdout.split() == ["1", repr(scope["beta"])]


def _power_rows_by_exponent(w, r, keep):
    # the one-masked-pass-per-exponent loop power_rows replaced
    out = np.zeros_like(w)
    rows = np.broadcast_to(r, w.shape[:-1])[..., None]
    for val in np.unique(r):
        sel = keep & (rows == val)
        out[sel] = w[sel] ** float(val) if val != 0.0 else 1.0
    return out


def test_power_rows_with_per_row_exponents_keeps_the_bits_of_the_exponent_loop():
    rng = np.random.default_rng(22)
    special = np.array([0.0, 0.5, 1.0, -1.0, 2.0])
    for shape in ((400, 4), (50, 6, 3), (1, 5)):
        w = np.exp(rng.uniform(-30.0, 2.0, size=shape))
        keep = rng.uniform(size=shape) < 0.8
        r = np.where(rng.uniform(size=shape[:-1]) < 0.3, rng.choice(special, size=shape[:-1]),
                     rng.uniform(-3.0, 3.0, size=shape[:-1]))
        assert _bits(la.power_rows(w, r, keep)) == _bits(_power_rows_by_exponent(w, r, keep))
        full = np.ones(shape, dtype=bool)
        assert _bits(la.power_rows(w, r)) == _bits(_power_rows_by_exponent(w, r, full))
