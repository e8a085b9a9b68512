"""Array-level Hermitian linear algebra used throughout the package.

Everything here operates on plain complex ndarrays; the typed wrappers live
in :mod:`cqbounds.operators`.
"""

import numpy as np

from .config import EIG_CLIP_TOL, HERMITIAN_TOL, SUPPORT_TOL
from .errors import DimensionMismatchError, DomainError, ValidationError


def hermitize(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Symmetrize (A + A^dagger)/2; reject deviations above ``tol``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise ValidationError(
            f"matrix deviates from Hermiticity by {dev:.3e} (tolerance {tol:.1e})"
        )
    return (a + a.conj().T) / 2.0


def eigh_deterministic(a: np.ndarray, cluster_tol: float = 1e-10):
    """Eigendecomposition with ascending eigenvalues and deterministic columns.

    Each eigenvector's global phase is fixed by making its first significant
    entry real positive; within a degenerate cluster (eigenvalue gap below
    ``cluster_tol``) columns are ordered lexicographically by their entries,
    comparing real then imaginary parts.
    """
    w, v = np.linalg.eigh(a)
    v = v.copy()
    dim = w.shape[0]
    for j in range(dim):
        col = v[:, j]
        idx = int(np.argmax(np.abs(col) > 1e-8))
        pivot = col[idx]
        if abs(pivot) > 0:
            v[:, j] = col * (pivot.conj() / abs(pivot))
    start = 0
    while start < dim:
        stop = start + 1
        while stop < dim and w[stop] - w[stop - 1] < cluster_tol:
            stop += 1
        if stop - start > 1:
            keys = [
                tuple(
                    pair
                    for entry in v[:, j]
                    for pair in (round(entry.real, 12), round(entry.imag, 12))
                )
                for j in range(start, stop)
            ]
            order = sorted(range(stop - start), key=keys.__getitem__)
            v[:, start:stop] = v[:, [start + k for k in order]]
            w[start:stop] = w[[start + k for k in order]]
        start = stop
    return w, v


def spectral_map(a: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar map to the eigenvalues of a Hermitian matrix."""
    w, v = np.linalg.eigh(a)
    return (v * fn(w)) @ v.conj().T


def logm_psd(a: np.ndarray, restricted: bool = False, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Natural matrix logarithm of a PSD matrix via its spectrum.

    With ``restricted=True`` eigenvalues at or below ``tol`` contribute 0 to
    the spectral sum (support-restricted logarithm); otherwise they raise.
    """
    w, v = np.linalg.eigh(a)
    if np.all(w <= tol):
        raise DomainError("logarithm of a null operator")
    if restricted:
        lw = np.where(w > tol, np.log(np.maximum(w, tol)), 0.0)
    else:
        if np.min(w) <= tol:
            raise DomainError(
                f"logarithm needs eigenvalues > {tol:.1e}; smallest is {np.min(w):.3e}"
            )
        lw = np.log(w)
    return (v * lw) @ v.conj().T


def expm_herm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix."""
    return spectral_map(a, np.exp)


def powm_psd(a: np.ndarray, r: float, restricted: bool = True, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Matrix power ``a**r`` of a PSD matrix.

    Eigenvalues below ``-EIG_CLIP_TOL`` raise; eigenvalues in the clip band
    are treated as 0.  Eigenvalues at or below ``tol`` map to 0 when
    ``restricted`` (pseudo-power / pseudo-inverse), else they raise.
    """
    w, v = np.linalg.eigh(a)
    if np.min(w) < -EIG_CLIP_TOL:
        raise DomainError(f"matrix power of a non-PSD matrix (min eigenvalue {np.min(w):.3e})")
    w = np.maximum(w, 0.0)
    small = w <= tol
    if np.any(small) and not restricted:
        raise DomainError("negative/fractional power of a singular matrix")
    pw = np.zeros_like(w)
    pw[~small] = w[~small] ** r if r != 0.0 else 1.0
    return (v * pw) @ v.conj().T


def absm_herm(a: np.ndarray) -> np.ndarray:
    """Operator absolute value |A| of a Hermitian matrix."""
    return spectral_map(a, np.abs)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    return powm_psd(a, 0.5)


def pinv_psd(a: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Support-restricted inverse of a PSD matrix."""
    return powm_psd(a, -1.0, restricted=True, tol=tol)


def kernel_projector(a: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Projector onto the kernel (eigenvalues <= tol) of a PSD matrix."""
    w, v = np.linalg.eigh(a)
    cols = v[:, w <= tol]
    return cols @ cols.conj().T


def entropy_psd(a: np.ndarray, tol: float = SUPPORT_TOL) -> float:
    """-tr[a ln a] of a PSD matrix, over eigenvalues above ``tol``."""
    w = np.linalg.eigvalsh(a)
    w = w[w > tol]
    return float(-np.sum(w * np.log(w)))


def trace_real(a: np.ndarray) -> float:
    return float(np.trace(a).real)


def inner_real(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr[a b] evaluated without forming the product matrix."""
    return float(np.sum(a * b.T).real)


def ptrace(a: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a square matrix over the subsystems not in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is a
    collection of subsystem indices to retain (original order preserved).
    """
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(keep))
    if not keep:
        raise DimensionMismatchError("keep must name at least one subsystem")
    for k in keep:
        if not 0 <= k < n:
            raise DimensionMismatchError(f"subsystem index {k} out of range for {n} subsystems")
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {a.shape} incompatible with subsystem dims {dims}"
        )
    traced = [k for k in range(n) if k not in keep]
    resh = a.reshape(dims + dims)
    # contract each traced subsystem's row index with its column index
    for offset, k in enumerate(traced):
        axis_row = k - offset
        axis_col = axis_row + (n - offset)
        resh = np.trace(resh, axis1=axis_row, axis2=axis_col)
    kept = int(np.prod([dims[k] for k in keep]))
    return resh.reshape(kept, kept)


def site_contract(a: np.ndarray, dims, site: int, state: np.ndarray) -> np.ndarray:
    """Contract subsystem ``site`` of ``a`` against ``state`` and re-insert Id.

    Returns the operator whose action on product inputs A_1 x ... x A_n is
    Tr(state A_site) * A_1 x ... x Id_site x ... x A_n; the building block
    for tensor products of single-site affine maps.
    """
    dims = list(dims)
    n = len(dims)
    d = dims[site]
    state = np.asarray(state, dtype=complex)
    if state.shape != (d, d):
        raise DimensionMismatchError(
            f"site state has dimension {state.shape[0]}, subsystem has {d}"
        )
    resh = a.reshape(dims + dims)
    # Tr over the site: sum_{a,b} state[a,b] * X[..row_site=b.., ..col_site=a..]
    reduced = np.tensordot(state, resh, axes=([0, 1], [n + site, site]))
    eye = np.eye(d, dtype=complex)
    if n == 1:
        return complex(reduced) * eye
    m = n - 1
    full = np.tensordot(reduced, eye, axes=0)
    row_order, col_order = [], []
    ki = 0
    for k in range(n):
        if k == site:
            row_order.append(2 * m)
            col_order.append(2 * m + 1)
        else:
            row_order.append(ki)
            col_order.append(m + ki)
            ki += 1
    total = int(np.prod(dims))
    return full.transpose(row_order + col_order).reshape(total, total)
