"""Entropic functionals: von Neumann and relative entropies, Renyi orders,
fidelity, and the variational lower form of the relative entropy.

All values are in nats: a float, or an array for a stack of arguments.  The
convention 0 log 0 = 0 applies throughout, and a support violation returns
+inf rather than raising.
"""

from __future__ import annotations

import math
import numpy as np

from . import _linalg as la
from .config import KERNEL_OVERLAP_TOL, SUPPORT_TOL
from .errors import DimensionMismatchError, DomainError
from .operators import DensityMatrix, _as_array

LN2 = math.log(2.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda ln lambda over the spectrum above the support cut."""
    return max(0.0, la.entropy_psd(_as_array(rho)))


def _support_violated(rho_arr: np.ndarray, sigma_arr: np.ndarray) -> np.ndarray:
    """Per member of a stack: True when some eigenvector of rho with weight
    > tol leaks into ker sigma."""
    # eigh, not eigvalsh: the eigenvalues the kernel projector cuts at
    w_s = np.linalg.eigh(sigma_arr)[0]
    flagged = np.zeros(w_s.shape[:-1], dtype=bool)
    has_kernel = w_s[..., 0] <= SUPPORT_TOL
    if la.first_member(has_kernel) is None:
        return flagged
    for idx in map(tuple, np.argwhere(has_kernel)):
        ker = la.kernel_projector(sigma_arr[idx])
        w, v = np.linalg.eigh(rho_arr[idx])
        for j in range(w.shape[0]):
            if w[j] > SUPPORT_TOL:
                vec = v[:, j]
                overlap = float(np.real(vec.conj() @ ker @ vec))
                if overlap > KERNEL_OVERLAP_TOL:
                    flagged[idx] = True
                    break
    return flagged


def _pair(rho, sigma):
    r = _as_array(rho)
    s = _as_array(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"operand dims {r.shape[-1]} vs {s.shape[-1]}")
    return r, s


def relative_entropy(rho: DensityMatrix, sigma):
    """Umegaki relative entropy tr[rho(ln rho - ln sigma)]; +inf off-support.

    Also takes stacks (..., d, d) of arrays, giving an array of values.
    """
    r, s = _pair(rho, sigma)
    off_support = _support_violated(r, s)
    w = np.linalg.eigvalsh(r)
    keep = w > SUPPORT_TOL
    tr_rho_log_rho = la.row_sums(w * np.log(np.maximum(w, SUPPORT_TOL)), keep)
    # off-support members are +inf whatever sigma is; give them Id as sigma
    # so that a null sigma cannot make the logarithm raise
    if off_support.any():
        s = np.where(off_support[..., None, None], np.eye(s.shape[-1]), s)
    log_s = la.logm_psd(s, restricted=True)
    nats = np.where(off_support, math.inf, tr_rho_log_rho - la.inner_real(r, log_s))
    return la.scalar_or_array(nats)


def renyi_relative_entropy(rho: DensityMatrix, sigma, alpha: float):
    """Relative Renyi entropy (1/(alpha-1)) ln tr(rho^alpha sigma^(1-alpha)).

    Also takes stacks (..., d, d) of arrays, giving an array of values.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1); got {alpha!r}")
    r, s = _pair(rho, sigma)
    q = la.inner_real(la.powm_psd(r, alpha), la.powm_psd(s, 1.0 - alpha))
    return la.per_member(lambda x: math.inf if x <= 0.0 else math.log(x) / (alpha - 1.0), q)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared-trace-norm fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    s = la.sqrtm_psd(_as_array(rho))
    inner = s @ _as_array(sigma) @ s
    w = np.linalg.eigvalsh(la.hermitize(inner, tol=1e-9))
    w = np.maximum(w, 0.0)
    val = float(np.sum(np.sqrt(w))) ** 2
    return min(1.0, max(0.0, val))


def relative_entropy_variational_value(rho: DensityMatrix, sigma, g):
    """tr[rho ln G] - ln tr[e^(ln sigma + ln G)], a lower form of D(rho||sigma).

    Never exceeds the relative entropy; equality holds at
    G = e^(ln rho - ln sigma) for full-rank inputs.  Also takes stacks
    (..., d, d) of arrays, giving an array of values.
    """
    g_arr = _as_array(g)
    if np.any(np.linalg.eigvalsh(g_arr)[..., 0] <= SUPPORT_TOL):
        raise DomainError("G must be positive definite")
    s_arr = _as_array(sigma)
    first = la.inner_real(_as_array(rho), la.logm_psd(g_arr))
    w_s, v_s = np.linalg.eigh(s_arr)
    supp = w_s > SUPPORT_TOL
    full = np.all(supp, axis=-1)
    trace_exp = np.empty(full.shape)
    mix = la.logm_psd(s_arr[full]) + la.logm_psd(g_arr[full])
    trace_exp[full] = la.trace_real(la.expm_herm(mix))
    for idx in map(tuple, np.argwhere(~full)):
        # compress both arguments onto the support of sigma
        basis = v_s[idx][:, supp[idx]]
        s_c = np.diag(np.log(w_s[idx][supp[idx]]))
        g_c = basis.conj().T @ g_arr[idx] @ basis
        mix = s_c + la.logm_psd(la.hermitize(g_c, tol=1e-9))
        trace_exp[idx] = la.trace_real(la.expm_herm(mix))
    return la.per_member(lambda f, t: f - math.log(t), first, trace_exp)
