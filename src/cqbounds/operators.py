"""Dense Hermitian operators, density matrices, and spectral calculus.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from . import _linalg as la
from .config import EIG_CLIP_TOL, HERMITIAN_TOL, MAX_TOTAL_DIM, SUPPORT_TOL
from .errors import DomainError, ResourceCapError, ValidationError


def _check_dim(dim: int):
    if dim > MAX_TOTAL_DIM:
        raise ResourceCapError(
            f"dimension {dim} exceeds the configured cap {MAX_TOTAL_DIM}"
        )


def _density_checks(arr: np.ndarray):
    """Trace and spectrum checks of Hermitian matrices (..., d, d).

    Each check rejects its first failing member.  Returns the entries, with
    eigenvalues in [-1e-10, 0) clipped to 0 (a new array only if some member
    was clipped), and each member's smallest eigenvalue after clipping.
    """
    tr = np.trace(arr, axis1=-2, axis2=-1).real
    i = la.first_member(np.abs(tr - 1.0) > 1e-10)
    if i is not None:
        raise ValidationError(f"trace {float(tr.flat[i])!r} differs from 1 by more than 1e-10")
    w, v = np.linalg.eigh(arr)
    w_min = w[..., 0]
    i = la.first_member(w_min < -EIG_CLIP_TOL)
    if i is not None:
        raise ValidationError(
            f"smallest eigenvalue {w_min.flat[i]:.3e} below the -1e-10 clip tolerance"
        )
    clip = w_min < 0.0
    if la.first_member(clip) is not None:
        arr = arr.copy()
        arr[clip] = la.hermitize(la.from_spectrum(np.maximum(w[clip], 0.0), v[clip]))
        w_min = np.where(clip, 0.0, w_min)
    return arr, w_min


def density_stack(entries) -> np.ndarray:
    """Validate a stack (..., d, d) of density matrices member by member.

    Applies every check of :class:`DensityMatrix` to each member (Hermiticity
    within 1e-10, the dimension cap, unit trace within 1e-10, eigenvalues
    clipped from [-1e-10, 0)) and returns the symmetrized, clipped stack.
    """
    arr = la.hermitize(entries, HERMITIAN_TOL)
    _check_dim(arr.shape[-1])
    return _density_checks(arr)[0]


class HermitianOperator:
    """A dense complex Hermitian matrix with subsystem-dimension metadata.

    Inputs may deviate from exact Hermiticity by at most 1e-10 in max norm
    and are symmetrized on construction.
    """

    __slots__ = ("entries", "subsystem_dims")

    def __init__(self, entries, subsystem_dims=None):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        arr = la.hermitize(arr, HERMITIAN_TOL)
        dim = arr.shape[0]
        _check_dim(dim)
        if subsystem_dims is None:
            subsystem_dims = (dim,)
        subsystem_dims = tuple(int(d) for d in subsystem_dims)
        if any(d <= 0 for d in subsystem_dims):
            raise ValidationError(f"subsystem dims must be positive, got {subsystem_dims}")
        if int(np.prod(subsystem_dims)) != dim:
            raise ValidationError(
                f"product of subsystem dims {subsystem_dims} != matrix dimension {dim}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "subsystem_dims", subsystem_dims)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def with_subsystems(self, subsystem_dims) -> "HermitianOperator":
        """Same matrix, reinterpreted with a new subsystem layout."""
        return HermitianOperator(self.entries, subsystem_dims)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, subsystems={self.subsystem_dims})"


class DensityMatrix:
    """A unit-trace PSD operator; eigenvalues in [-1e-10, 0) are clipped to 0."""

    __slots__ = ("op", "min_eig")

    def __init__(self, entries, subsystem_dims=None):
        if isinstance(entries, HermitianOperator):
            op = entries if subsystem_dims is None else entries.with_subsystems(subsystem_dims)
        else:
            op = HermitianOperator(entries, subsystem_dims)
        entries, w_min = _density_checks(op.entries)
        if entries is not op.entries:
            op = HermitianOperator(entries, op.subsystem_dims)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "min_eig", float(w_min))

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def subsystem_dims(self):
        return self.op.subsystem_dims

    def with_subsystems(self, subsystem_dims) -> "DensityMatrix":
        return DensityMatrix(self.op.with_subsystems(subsystem_dims))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, subsystems={self.subsystem_dims})"


def _as_array(a) -> np.ndarray:
    return a.entries if isinstance(a, (HermitianOperator, DensityMatrix)) else np.asarray(a, dtype=complex)


def _as_dims(a):
    if isinstance(a, (HermitianOperator, DensityMatrix)):
        return a.subsystem_dims
    return (np.asarray(a).shape[0],)


def tensor(a, b) -> HermitianOperator:
    """Kronecker product; subsystem layouts concatenate."""
    return HermitianOperator(
        np.kron(_as_array(a), _as_array(b)), _as_dims(a) + _as_dims(b)
    )


def tensor_density(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(tensor(a, b))


def tensor_all(ops) -> HermitianOperator:
    """Kronecker product of a nonempty sequence of operators, left to right."""
    ops = list(ops)
    if not ops:
        raise DomainError("tensor_all needs at least one operator")
    out = _as_array(ops[0])
    dims = _as_dims(ops[0])
    for op in ops[1:]:
        out = np.kron(out, _as_array(op))
        dims = dims + _as_dims(op)
    return HermitianOperator(out, dims)


def partial_trace(a, keep) -> HermitianOperator:
    """Trace out every subsystem not listed in ``keep`` (indices, any order)."""
    keep = [keep] if isinstance(keep, int) else list(keep)
    dims = _as_dims(a)
    reduced = la.ptrace(_as_array(a), dims, keep)
    kept_dims = [dims[k] for k in sorted(set(keep))]
    return HermitianOperator(reduced, kept_dims)


def eig_hermitian(a):
    """Ascending eigenvalues and a unitary of eigenvectors, deterministically.

    Degenerate clusters (gap < 1e-10) are ordered lexicographically by
    eigenvector entries, with each column's phase fixed, so repeated calls
    agree bit for bit.
    """
    return la.eigh_deterministic(_as_array(a))


_FUNCTION_NAMES = ("log", "exp", "power", "abs")


def matrix_function(a, name: str, exponent: float | None = None,
                    support_restricted: bool = False) -> HermitianOperator:
    """Spectral calculus: apply log, exp, power(r), or abs to the eigenvalues.

    ``log`` requires eigenvalues above the support threshold 1e-12 unless
    ``support_restricted`` is set, in which case near-null directions
    contribute 0 to the spectral sum.
    """
    arr = _as_array(a)
    dims = _as_dims(a)
    if name == "log":
        out = la.logm_psd(arr, restricted=support_restricted)
    elif name == "exp":
        out = la.expm_herm(arr)
    elif name == "abs":
        out = la.absm_herm(arr)
    elif name == "power":
        if exponent is None:
            raise DomainError("power requires an exponent")
        out = la.powm_psd(arr, float(exponent), restricted=support_restricted or exponent >= 0)
    else:
        raise DomainError(f"unknown matrix function {name!r}; expected one of {_FUNCTION_NAMES}")
    return HermitianOperator(out, dims)


def _ginibre(rng, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _ginibre_stack(dim: int, seeds) -> np.ndarray:
    """One complex Gaussian (dim, dim) matrix per seed, each from its own stream."""
    g = np.empty((len(seeds), dim, dim), dtype=complex)
    for k, seed in enumerate(seeds):
        g[k] = _ginibre(np.random.default_rng(seed), dim)
    return g


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices (..., d, d) by QR."""
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the result is a deterministic Haar draw
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _density_entries(dim: int, seeds, min_eig_floor: float) -> np.ndarray:
    """Unvalidated (N, dim, dim) draws of ``random_density``, one per seed."""
    if dim < 1:
        raise DomainError("dimension must be positive")
    if not 0.0 <= min_eig_floor < 1.0 / dim:
        raise DomainError(
            f"min_eig_floor must lie in [0, 1/dim={1.0 / dim!r}); got {min_eig_floor!r}"
        )
    if dim == 1:
        return np.ones((len(seeds), 1, 1), dtype=complex)
    probs = np.empty((len(seeds), dim))
    g = np.empty((len(seeds), dim, dim), dtype=complex)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        probs[k] = rng.dirichlet(np.ones(dim))
        g[k] = _ginibre(rng, dim)
    lam = min_eig_floor + (1.0 - dim * min_eig_floor) * probs
    return la.from_spectrum(lam, _haar_unitaries(g))


def random_density(dim: int, seed: int, min_eig_floor: float = 0.0) -> DensityMatrix:
    """Seeded full-rank density matrix with smallest eigenvalue >= the floor."""
    return DensityMatrix(_density_entries(dim, [seed], min_eig_floor)[0])


def random_density_stack(dim: int, seeds, min_eig_floor: float = 0.0) -> np.ndarray:
    """``random_density(dim, s, min_eig_floor)`` for each seed, as a validated
    (N, dim, dim) array."""
    return density_stack(_density_entries(dim, seeds, min_eig_floor))


def random_hermitian(dim: int, seed: int, scale: float = 1.0) -> HermitianOperator:
    """Seeded GUE-style Hermitian matrix."""
    g = _ginibre(np.random.default_rng(seed), dim)
    return HermitianOperator(scale * (g + g.conj().T) / 2.0)


def _psd_entries(dim: int, seeds, min_eig_floor: float, scale: float) -> np.ndarray:
    """Unvalidated (N, dim, dim) draws of ``random_psd``, one per seed."""
    g = _ginibre_stack(dim, seeds)
    return scale * (g @ la.dagger(g)) / dim + min_eig_floor * np.eye(dim)


def random_psd(dim: int, seed: int, min_eig_floor: float = 0.0, scale: float = 1.0) -> HermitianOperator:
    """Seeded PSD matrix W W^dagger / dim (+ floor), unnormalized."""
    return HermitianOperator(_psd_entries(dim, [seed], min_eig_floor, scale)[0])


def random_psd_stack(dim: int, seeds, min_eig_floor: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """``random_psd(dim, s, ...)`` entries for each seed, as a symmetrized
    (N, dim, dim) array checked like a HermitianOperator."""
    mat = la.hermitize(_psd_entries(dim, seeds, min_eig_floor, scale), HERMITIAN_TOL)
    _check_dim(dim)
    return mat


def _isometry_stack(dim_in: int, dim_out: int, seeds) -> np.ndarray:
    if dim_out < dim_in:
        raise DomainError("an isometry needs dim_out >= dim_in")
    return _haar_unitaries(_ginibre_stack(dim_out, seeds))[..., :dim_in]


def random_isometry(dim_in: int, dim_out: int, seed: int) -> np.ndarray:
    """Seeded isometry V with V^dagger V = Id on the input space."""
    return _isometry_stack(dim_in, dim_out, [seed])[0]


def random_channel_kraus_stack(dim_in: int, dim_out: int, dim_env: int, seeds) -> np.ndarray:
    """``random_channel_kraus`` for each seed, as an (N, dim_env, dim_out,
    dim_in) array."""
    v = _isometry_stack(dim_in, dim_out * dim_env, seeds)
    return v.reshape(len(seeds), dim_env, dim_out, dim_in)


def random_channel_kraus(dim_in: int, dim_out: int, dim_env: int, seed: int):
    """Kraus operators of a seeded channel: a random isometry into
    output x environment followed by tracing out the environment."""
    return list(random_channel_kraus_stack(dim_in, dim_out, dim_env, [seed])[0])


def apply_kraus(rho, kraus) -> np.ndarray:
    """sum_i K_i rho K_i^dagger on raw arrays.

    ``rho`` may be a stack (..., d, d) with ``kraus`` of shape
    (..., n_kraus, d_out, d).
    """
    arr = _as_array(rho)
    return sum(k @ arr @ la.dagger(k) for k in np.moveaxis(np.asarray(kraus), -3, 0))


def support_tolerance() -> float:
    return SUPPORT_TOL
