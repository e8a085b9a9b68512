"""Array-level Hermitian linear algebra used throughout the package.

Everything here operates on plain complex ndarrays; the typed wrappers live
in :mod:`cqbounds.operators`.  The spectral kernels take stacks (..., d, d):
one matrix is the stack of none, through the same code, and each member of
a stack gets the bits a call on it alone gives.  Checks reject the first
failing member with the message a single call gives.
"""

import numpy as np

from .config import EIG_CLIP_TOL, HERMITIAN_TOL, SUPPORT_TOL
from .errors import DimensionMismatchError, DomainError, ValidationError


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def scalar_or_array(out: np.ndarray):
    """A float for the value of a single matrix, else the array of values."""
    return float(out) if out.ndim == 0 else out


def first_member(bad: np.ndarray):
    """Flat index of the first member flagged in ``bad``, or None."""
    if bad.ndim == 0:  # one matrix: a numpy bool, whose .any() is slow
        return 0 if bad else None
    if not bad.any():
        return None
    return int(np.flatnonzero(bad)[0])


def per_member(fn, *values):
    """``fn`` applied member by member to broadcast arrays, in Python floats.

    The scalar tail of a stacked formula (``math.log``, ``x ** y`` on
    floats) runs here, so each member is reduced exactly as a single call
    reduces it.  Returns a float for one member, else an array.
    """
    values = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in values))
    flat = [fn(*map(float, args)) for args in zip(*(x.ravel() for x in values))]
    return scalar_or_array(np.array(flat, dtype=float).reshape(values[0].shape))


def hermitize(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Symmetrize (A + A^dagger)/2 over a stack (..., d, d).

    Rejects the first member that deviates from Hermiticity by more than
    ``tol``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    adj = dagger(a)
    if a.size:
        dev = np.abs(a - adj).max(axis=(-2, -1))
        i = first_member(dev > tol)
        if i is not None:
            raise ValidationError(
                f"matrix deviates from Hermiticity by {dev.flat[i]:.3e} (tolerance {tol:.1e})"
            )
    return (a + adj) / 2.0


def from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(w) V^dagger for stacks of eigenvalue rows and eigenvectors."""
    return (v * w[..., None, :]) @ dagger(v)


def spectral_map(a: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar map to the eigenvalues of Hermitian matrices (..., d, d)."""
    w, v = np.linalg.eigh(a)
    return from_spectrum(fn(w), v)


def logm_psd(a: np.ndarray, restricted: bool = False) -> np.ndarray:
    """Natural matrix logarithm of PSD matrices (..., d, d) via their spectra.

    With ``restricted=True`` eigenvalues at or below ``SUPPORT_TOL``
    contribute 0 to the spectral sum (support-restricted logarithm);
    otherwise they raise.
    """
    w, v = np.linalg.eigh(a)
    if first_member(np.all(w <= SUPPORT_TOL, axis=-1)) is not None:
        raise DomainError("logarithm of a null operator")
    if restricted:
        lw = np.where(w > SUPPORT_TOL, np.log(np.maximum(w, SUPPORT_TOL)), 0.0)
    else:
        i = first_member(w[..., 0] <= SUPPORT_TOL)
        if i is not None:
            raise DomainError(
                f"logarithm needs eigenvalues > {SUPPORT_TOL:.1e}; smallest is {w[..., 0].flat[i]:.3e}"
            )
        lw = np.log(w)
    return from_spectrum(lw, v)


def expm_herm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of Hermitian matrices (..., d, d)."""
    return spectral_map(a, np.exp)


def power_rows(w: np.ndarray, r, keep=None) -> np.ndarray:
    """``w ** r`` on the entries ``keep`` of the rows of ``w``, 0 elsewhere.

    ``r`` is one exponent or one per row (shape ``w.shape[:-1]``).  Every
    entry gets exactly the value the scalar call ``w ** float(r)`` gives it:
    one ``np.power`` over all kept entries, then the exponents numpy takes
    by a scalar fast path (ones, copy, reciprocal, sqrt, square) redone.
    """
    out = np.zeros_like(w)
    keep = np.ones(w.shape, dtype=bool) if keep is None else keep
    r = np.asarray(r, dtype=float)
    x = w[keep]
    if r.ndim == 0:
        out[keep] = x ** float(r) if r != 0.0 else 1.0
        return out
    r = np.broadcast_to(np.broadcast_to(r, w.shape[:-1])[..., None], w.shape)[keep]
    vals = np.power(x, r)
    for val in (0.0, 0.5, 1.0, -1.0, 2.0):
        sel = r == val
        if sel.any():
            vals[sel] = x[sel] ** val if val != 0.0 else 1.0
    out[keep] = vals
    return out


def powm_psd(a: np.ndarray, r, restricted: bool = True) -> np.ndarray:
    """Matrix powers ``a**r`` of PSD matrices (..., d, d).

    ``r`` is one exponent or one per matrix.  Eigenvalues below
    ``-EIG_CLIP_TOL`` raise; eigenvalues in the clip band are treated as 0.
    Eigenvalues at or below ``SUPPORT_TOL`` map to 0 when ``restricted``
    (pseudo-power / pseudo-inverse), else they raise.
    """
    w, v = np.linalg.eigh(a)
    i = first_member(w[..., 0] < -EIG_CLIP_TOL)
    if i is not None:
        raise DomainError(
            f"matrix power of a non-PSD matrix (min eigenvalue {w[..., 0].flat[i]:.3e})"
        )
    w = np.maximum(w, 0.0)
    small = w <= SUPPORT_TOL
    if not restricted and np.any(small):
        raise DomainError("negative/fractional power of a singular matrix")
    return from_spectrum(power_rows(w, r, ~small), v)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    return powm_psd(a, 0.5)


def pinv_psd(a: np.ndarray) -> np.ndarray:
    """Support-restricted inverse of a PSD matrix."""
    return powm_psd(a, -1.0)


def kernel_projector(a: np.ndarray) -> np.ndarray:
    """Projectors onto the kernels (eigenvalues <= ``SUPPORT_TOL``) of PSD
    matrices (..., d, d)."""
    w, v = np.linalg.eigh(a)
    return from_spectrum((w <= SUPPORT_TOL).astype(float), v)


def row_sums(x: np.ndarray, keep=None) -> np.ndarray:
    """Sums over the last axis of the entries ``keep`` (all by default).

    Each row is summed exactly as ``np.sum(row[keep_row])`` would sum it, so
    a stack reproduces its members' one-at-a-time sums bit for bit.
    """
    if keep is None or keep.all():
        return x.sum(axis=-1)
    flat_x = x.reshape(-1, x.shape[-1])
    flat_k = keep.reshape(flat_x.shape)
    sums = [np.sum(row[k]) for row, k in zip(flat_x, flat_k)]
    return np.array(sums, dtype=x.dtype).reshape(x.shape[:-1])


def kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a[i] (x) b[i] of stacks (..., m, m) and (..., n, n),
    each with the bits of ``np.kron`` on the pair."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    size = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (size, size))


def entropy_psd(a: np.ndarray) -> float:
    """-tr[a ln a] of a PSD matrix, over eigenvalues above ``SUPPORT_TOL``."""
    w = np.linalg.eigvalsh(a)
    w = w[w > SUPPORT_TOL]
    return float(-np.sum(w * np.log(w)))


def trace_real(a: np.ndarray):
    """Re tr[a]: a float for one matrix, an array for a stack."""
    return scalar_or_array(np.trace(a, axis1=-2, axis2=-1).real)


def inner_real(a: np.ndarray, b: np.ndarray):
    """Re tr[a b] evaluated without forming the product matrix.

    A float for one pair of matrices, an array for stacks (..., d, d).
    """
    return scalar_or_array((a * b.swapaxes(-1, -2)).sum(axis=(-2, -1)).real)


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
    # rows (before, after) and columns (before, after) of the other sites,
    # each with the site's identity index put back between them
    before, after = int(np.prod(dims[:site])), int(np.prod(dims[site + 1:]))
    full = np.tensordot(reduced.reshape(before, after, before, after), eye, axes=0)
    total = before * d * after
    return full.transpose(0, 4, 1, 2, 5, 3).reshape(total, total)
