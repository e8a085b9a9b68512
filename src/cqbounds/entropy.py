"""Entropic functionals: von Neumann and relative entropies, Renyi orders,
mutual/conditional entropies, fidelity, and the variational lower form of the
relative entropy.

All values are computed in nats; :class:`EntropyValue` carries the derived
bits representation.  The convention 0 log 0 = 0 applies throughout, and a
support violation returns +inf rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .config import KERNEL_OVERLAP_TOL, SUPPORT_TOL
from .errors import DimensionMismatchError, DomainError
from .operators import DensityMatrix, HermitianOperator, partial_trace, tensor

LN2 = math.log(2.0)


@dataclass(frozen=True)
class EntropyValue:
    """An entropic scalar in nats with a derived bits view; +inf propagates."""

    nats: float

    @property
    def bits(self) -> float:
        return self.nats / LN2

    def __float__(self) -> float:
        return self.nats

    def __repr__(self):
        return f"EntropyValue(nats={self.nats!r})"


def _arr(a) -> np.ndarray:
    return a.entries if isinstance(a, (HermitianOperator, DensityMatrix)) else np.asarray(a, dtype=complex)


def von_neumann_entropy(rho: DensityMatrix) -> EntropyValue:
    """S(rho) = -sum lambda ln lambda over the spectrum above the support cut."""
    w = np.linalg.eigvalsh(_arr(rho))
    w = w[w > SUPPORT_TOL]
    return EntropyValue(max(0.0, float(-np.sum(w * np.log(w)))))


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
        ker = la.kernel_projector(sigma_arr[idx], SUPPORT_TOL)
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
    r = _arr(rho)
    s = _arr(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"operand dims {r.shape[-1]} vs {s.shape[-1]}")
    return r, s


def relative_entropy(rho: DensityMatrix, sigma) -> EntropyValue:
    """Umegaki relative entropy tr[rho(ln rho - ln sigma)]; +inf off-support.

    Also takes stacks (..., d, d) of arrays, giving an array of values in
    ``nats``.
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
    return EntropyValue(la.scalar_or_array(nats))


def renyi_relative_entropy(rho: DensityMatrix, sigma, alpha: float) -> EntropyValue:
    """Relative Renyi entropy (1/(alpha-1)) ln tr(rho^alpha sigma^(1-alpha)).

    Also takes stacks (..., d, d) of arrays, giving an array of values in
    ``nats``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1); got {alpha!r}")
    r, s = _pair(rho, sigma)
    q = la.inner_real(la.powm_psd(r, alpha), la.powm_psd(s, 1.0 - alpha))
    return EntropyValue(la.per_member(
        lambda x: math.inf if x <= 0.0 else math.log(x) / (alpha - 1.0), q))


def renyi_complement(a, b, p: float) -> float:
    """-(1/p) ln tr[A^p B^(1-p)] for PSD A, B and p in (0, 1).

    The normalization that pairs with the reverse-Hoelder step of the key
    inequality; distinct from ``renyi_relative_entropy`` at order 1 - p.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0,1); got {p!r}")
    q = la.inner_real(la.powm_psd(_arr(a), p), la.powm_psd(_arr(b), 1.0 - p))
    if q <= 0.0:
        return math.inf
    return -math.log(q) / p


def mutual_information(rho_ab: DensityMatrix, cut: int) -> EntropyValue:
    """I(A;B) = D(rho_AB || rho_A x rho_B); ``cut`` = #subsystems on side A."""
    dims = rho_ab.subsystem_dims
    if not 1 <= cut < len(dims):
        raise DimensionMismatchError(
            f"cut {cut} invalid for {len(dims)} subsystems"
        )
    rho_a = partial_trace(rho_ab, range(cut))
    rho_b = partial_trace(rho_ab, range(cut, len(dims)))
    return relative_entropy(rho_ab, tensor(rho_a, rho_b))


def conditional_entropy(rho_ab: DensityMatrix, conditioning: int) -> EntropyValue:
    """H(A|B) = -D(rho_AB || Id_A x rho_B), with B the conditioning subsystem.

    May be negative (e.g. on maximally entangled states).
    """
    dims = rho_ab.subsystem_dims
    if len(dims) != 2:
        raise DimensionMismatchError("conditional entropy expects a bipartite operator")
    if conditioning not in (0, 1):
        raise DimensionMismatchError(f"conditioning index must be 0 or 1, got {conditioning}")
    rho_b = partial_trace(rho_ab, [conditioning])
    other = 1 - conditioning
    eye_a = HermitianOperator(np.eye(dims[other], dtype=complex))
    ref = tensor(eye_a, rho_b) if conditioning == 1 else tensor(rho_b, eye_a)
    d = relative_entropy(rho_ab, ref)
    return EntropyValue(-d.nats)


def binary_entropy(p: float) -> EntropyValue:
    """-p ln p - (1-p) ln(1-p) with 0 ln 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0,1]; got {p!r}")
    h = 0.0
    if 0.0 < p < 1.0:
        h = -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)
    return EntropyValue(h)


def classical_kl(p, q) -> EntropyValue:
    """sum p ln(p/q) for a distribution p and a nonnegative measure q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatchError(f"shape mismatch {p.shape} vs {q.shape}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise DomainError(f"p must sum to 1; sums to {float(p.sum())!r}")
    if np.any(q < -1e-15):
        raise DomainError("q must be entrywise nonnegative")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0:
            continue
        if qi <= 0.0:
            return EntropyValue(math.inf)
        total += pi * math.log(pi / qi)
    return EntropyValue(total)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared-trace-norm fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    s = la.sqrtm_psd(_arr(rho))
    inner = s @ _arr(sigma) @ s
    w = np.linalg.eigvalsh(la.hermitize(inner, tol=1e-9))
    w = np.maximum(w, 0.0)
    val = float(np.sum(np.sqrt(w))) ** 2
    return min(1.0, max(0.0, val))


def relative_entropy_variational_value(rho: DensityMatrix, sigma, g) -> EntropyValue:
    """tr[rho ln G] - ln tr[e^(ln sigma + ln G)], a lower form of D(rho||sigma).

    Never exceeds the relative entropy; equality holds at
    G = e^(ln rho - ln sigma) for full-rank inputs.  Also takes stacks
    (..., d, d) of arrays, giving an array of values in ``nats``.
    """
    g_arr = _arr(g)
    if np.any(np.linalg.eigvalsh(g_arr)[..., 0] <= SUPPORT_TOL):
        raise DomainError("G must be positive definite")
    s_arr = _arr(sigma)
    first = la.inner_real(_arr(rho), la.logm_psd(g_arr))
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
    return EntropyValue(la.per_member(lambda f, t: f - math.log(t), first, trace_exp))
