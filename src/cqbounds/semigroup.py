"""Weighted L_p pseudo-norms, generalized depolarizing semigroups, and
numerical verifiers for reverse hypercontractivity and the trace
inequalities that support it.

The weighted norms ||X||_{p,sigma} = (tr |sigma^(1/2p) X sigma^(1/2p)|^p)^(1/p)
are genuine norms only for p >= 1; for p < 1 they are pseudo-norms and for
p < 0 they are defined only for X > 0, via the inverse-operator formula
(tr |sigma^(-1/2p) X^(-1) sigma^(-1/2p)|^(-p))^(1/p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .errors import DimensionMismatchError, DomainError, PreconditionError, ValidationError
from .operators import DensityMatrix, HermitianOperator

#: strict-positivity floor for arguments of negative-p norms
POSITIVITY_FLOOR = 1e-12


@dataclass(frozen=True)
class SemigroupSpec:
    """A generalized depolarizing semigroup, fixed by its invariant state.

    The modified log-Sobolev constant of the tensorized generator is bounded
    below by 1/4, which sets the hypercontractive time threshold.
    """

    invariant_state: DensityMatrix
    mlsi_lower_bound: float = 0.25

    def __post_init__(self):
        if self.invariant_state.min_eig < 1e-8:
            raise ValidationError(
                f"invariant state must be full rank (min eigenvalue "
                f"{self.invariant_state.min_eig:.3e} < 1e-8)"
            )


@dataclass(frozen=True)
class InequalityMargin:
    """Signed margin lhs - rhs of one inequality instance."""

    lhs: float
    rhs: float
    instance_digest: str = ""
    margin: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "margin", self.lhs - self.rhs)

    @property
    def relative_margin(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.margin / scale


def _arr(a) -> np.ndarray:
    return a.entries if isinstance(a, (HermitianOperator, DensityMatrix)) else np.asarray(a, dtype=complex)


def weighted_lp_norm(x, p: float, sigma: DensityMatrix) -> float:
    """Weighted L_p (pseudo-)norm of x with respect to a full-rank state.

    Also takes stacks (..., d, d) of arrays with one ``p``, giving an array.
    """
    if p == 0.0:
        raise DomainError("p = 0 is outside the norm family")
    x_arr = _arr(x)
    s_arr = _arr(sigma)
    if x_arr.shape != s_arr.shape:
        raise DimensionMismatchError(f"operand dims {x_arr.shape[-1]} vs {s_arr.shape[-1]}")
    w_min = np.linalg.eigvalsh(x_arr)[..., 0]
    if p < 0.0:
        i = la.first_member(w_min <= POSITIVITY_FLOOR)
        if i is not None:
            raise DomainError(
                f"negative-p norms need X > 0; smallest eigenvalue {w_min.flat[i]:.3e}"
            )
        weight = la.powm_psd(s_arr, -1.0 / (2.0 * p), restricted=False)
        core = weight @ la.powm_psd(x_arr, -1.0, restricted=False) @ weight
        vals = np.abs(np.linalg.eigvalsh(la.hermitize(core, tol=1e-8)))
        sums = la.row_sums(vals ** (-p))
    else:
        i = la.first_member(w_min < -1e-10)
        if i is not None:
            raise DomainError(f"X must be PSD; smallest eigenvalue {w_min.flat[i]:.3e}")
        weight = la.powm_psd(s_arr, 1.0 / (2.0 * p), restricted=False)
        core = weight @ x_arr @ weight
        vals = np.abs(np.linalg.eigvalsh(la.hermitize(core, tol=1e-8)))
        # zero eigenvalues drop out; a sum over none is 0, and 0 ** (1/p) = 0
        keep = vals > 0.0
        sums = la.row_sums(la.power_rows(vals, p, keep), keep)
    return la.per_member(lambda total: total ** (1.0 / p), sums)


def schatten_norm(x, p) -> float:
    """Unweighted Schatten p-norm (p = inf gives the operator norm).

    Also takes stacks (..., d, d) of arrays, with one ``p`` or one per
    member, giving an array.
    """
    vals = np.abs(np.linalg.eigvalsh(_arr(x)))
    p = np.broadcast_to(np.asarray(p, dtype=float), vals.shape[:-1])
    inf = np.isinf(p)
    i = la.first_member(~inf & (p <= 0.0))
    if i is not None:
        raise DomainError(f"Schatten norm needs p > 0; got {float(p.flat[i])!r}")
    top = np.max(vals, axis=-1, initial=0.0)
    sums = la.row_sums(la.power_rows(vals, np.where(inf, 1.0, p)))
    return la.per_member(
        lambda q, peak, total: peak if math.isinf(q) else total ** (1.0 / q), p, top, sums)


def depolarize_heisenberg(x, t: float, spec: SemigroupSpec) -> HermitianOperator:
    """Heisenberg-picture depolarizing map e^-t X + (1-e^-t) tr(sigma X) Id."""
    if t < 0.0:
        raise DomainError(f"time must be nonnegative; got {t!r}")
    x_arr = _arr(x)
    s_arr = spec.invariant_state.entries
    if x_arr.shape != s_arr.shape:
        raise DimensionMismatchError(f"operand dims {x_arr.shape[0]} vs {s_arr.shape[0]}")
    decay = math.exp(-t)
    mean = la.inner_real(s_arr, x_arr)
    out = decay * x_arr + (1.0 - decay) * mean * np.eye(x_arr.shape[0])
    dims = x.subsystem_dims if isinstance(x, (HermitianOperator, DensityMatrix)) else None
    return HermitianOperator(out, dims)


def depolarize_schrodinger(rho: DensityMatrix, t: float, spec: SemigroupSpec) -> DensityMatrix:
    """Schroedinger-picture map e^-t rho + (1-e^-t) sigma; fixes sigma."""
    if t < 0.0:
        raise DomainError(f"time must be nonnegative; got {t!r}")
    decay = math.exp(-t)
    out = decay * rho.entries + (1.0 - decay) * spec.invariant_state.entries
    return DensityMatrix(out, rho.subsystem_dims)


def _sitewise_affine(x_arr: np.ndarray, dims, site_states, decay: float, gain: float) -> np.ndarray:
    """Apply x -> decay*x + gain*tr_site(state x) o Id_site at every site."""
    out = x_arr
    for site, state in enumerate(site_states):
        out = decay * out + gain * la.site_contract(out, dims, site, _arr(state))
    return out


def tensor_depolarize(x_n, t: float, site_states) -> HermitianOperator:
    """Tensor product of single-site depolarizing maps, applied site by site."""
    if t < 0.0:
        raise DomainError(f"time must be nonnegative; got {t!r}")
    x_arr = _arr(x_n)
    dims = x_n.subsystem_dims if isinstance(x_n, (HermitianOperator, DensityMatrix)) else None
    site_states = list(site_states)
    if dims is None or len(dims) != len(site_states):
        raise DimensionMismatchError(
            f"operator has {len(dims) if dims else '?'} subsystems, got {len(site_states)} site states"
        )
    for d, st in zip(dims, site_states):
        if _arr(st).shape[0] != d:
            raise DimensionMismatchError("site state dimension mismatch")
    decay = math.exp(-t)
    out = _sitewise_affine(x_arr, dims, site_states, decay, 1.0 - decay)
    return HermitianOperator(out, dims)


def psi_map(t_op, t: float, gamma: float, rho_y: DensityMatrix) -> HermitianOperator:
    """Amplified depolarizing map e^-t T + gamma (1-e^-t) tr(rho_Y T) Id.

    At gamma = 1 this is exactly the Heisenberg depolarizing map with
    invariant state rho_Y; for gamma > 1 it dominates it on PSD inputs.
    """
    if gamma < 1.0:
        raise DomainError(f"gamma must be >= 1; got {gamma!r}")
    if t < 0.0:
        raise DomainError(f"time must be nonnegative; got {t!r}")
    t_arr = _arr(t_op)
    decay = math.exp(-t)
    mean = la.inner_real(rho_y.entries, t_arr)
    out = decay * t_arr + gamma * (1.0 - decay) * mean * np.eye(t_arr.shape[0])
    dims = t_op.subsystem_dims if isinstance(t_op, (HermitianOperator, DensityMatrix)) else None
    return HermitianOperator(out, dims)


def psi_map_sites(t_op, t: float, gamma: float, rho_y: DensityMatrix) -> HermitianOperator:
    """Tensor power of the amplified map across every subsystem of ``t_op``."""
    if gamma < 1.0:
        raise DomainError(f"gamma must be >= 1; got {gamma!r}")
    if t < 0.0:
        raise DomainError(f"time must be nonnegative; got {t!r}")
    t_arr = _arr(t_op)
    dims = t_op.subsystem_dims if isinstance(t_op, (HermitianOperator, DensityMatrix)) else (t_arr.shape[0],)
    d = rho_y.dim
    if any(dd != d for dd in dims):
        raise DimensionMismatchError("every subsystem must match the reference state dimension")
    decay = math.exp(-t)
    out = _sitewise_affine(t_arr, dims, [rho_y] * len(dims), decay, gamma * (1.0 - decay))
    return HermitianOperator(out, dims)


def rhc_time_threshold(p: float, q: float) -> float:
    """Smallest time at which reverse hypercontractivity from q to p is claimed."""
    if not (p <= q < 1.0):
        raise DomainError(f"need p <= q < 1; got p={p!r}, q={q!r}")
    return math.log((p - 1.0) / (q - 1.0))


def check_rhc(g_n, site_states, p: float, q: float, t: float) -> InequalityMargin:
    """Margin of ||Phi_t(G)||_{p,sigma} >= ||G||_{q,sigma} above the threshold.

    The claim only holds for t >= ln((p-1)/(q-1)); smaller times raise a
    precondition error rather than reporting a meaningless margin.
    """
    threshold = rhc_time_threshold(p, q)
    if t < threshold - 1e-12:
        raise PreconditionError(
            f"time {t!r} below the hypercontractive threshold {threshold!r}"
        )
    site_states = list(site_states)
    g_min = float(np.min(np.linalg.eigvalsh(_arr(g_n))))
    if g_min <= POSITIVITY_FLOOR:
        raise DomainError(f"G must be strictly positive; smallest eigenvalue {g_min:.3e}")
    joint = _arr(site_states[0])
    for st in site_states[1:]:
        joint = np.kron(joint, _arr(st))
    sigma_joint = DensityMatrix(joint, tuple(_arr(s).shape[0] for s in site_states))
    moved = tensor_depolarize(g_n, t, site_states)
    lhs = weighted_lp_norm(moved, p, sigma_joint)
    rhs = weighted_lp_norm(g_n, q, sigma_joint)
    return InequalityMargin(lhs, rhs, f"rhc p={p!r} q={q!r} t={t!r}")


def check_alt(a, b, r) -> InequalityMargin:
    """Margin of tr[(B^1/2 A B^1/2)^r] >= tr[B^r/2 A^r B^r/2] for r in [0,1].

    Also takes stacks (..., d, d) of arrays, with one ``r`` or one per
    member; the margin then holds arrays.
    """
    r_arr = np.asarray(r, dtype=float)
    i = la.first_member(~((0.0 <= r_arr) & (r_arr <= 1.0)))
    if i is not None:
        raise DomainError(f"r must lie in [0,1]; got {float(r_arr.flat[i])!r}")
    a_arr, b_arr = _arr(a), _arr(b)
    b_half = la.sqrtm_psd(b_arr)
    inner = la.hermitize(b_half @ a_arr @ b_half, tol=1e-8)
    lhs = la.trace_real(la.powm_psd(inner, r_arr))
    b_rhalf = la.powm_psd(b_arr, r_arr / 2.0)
    rhs = la.trace_real(la.hermitize(b_rhalf @ la.powm_psd(a_arr, r_arr) @ b_rhalf, tol=1e-8))
    return InequalityMargin(lhs, rhs, f"alt r={r!r}")


def holder_conjugate(p: float) -> float:
    if p == 0.0:
        raise DomainError("p = 0 has no Hoelder conjugate")
    if p == 1.0:
        return math.inf
    return 1.0 / (1.0 - 1.0 / p)


def check_reverse_holder(a, b, p: float, sigma: DensityMatrix) -> InequalityMargin:
    """Margin of <A,B>_sigma >= ||A||_{p,sigma} ||B||_{p^,sigma} for p < 1.

    Also takes stacks (..., d, d) of arrays with one ``p``; the margin then
    holds arrays.
    """
    if p == 0.0:
        raise DomainError("p = 0 is not admissible")
    if p >= 1.0:
        raise DomainError(f"reverse Hoelder needs p < 1; got {p!r}")
    b_min = np.linalg.eigvalsh(_arr(b))[..., 0]
    i = la.first_member(b_min <= POSITIVITY_FLOOR)
    if i is not None:
        raise DomainError(f"B must be strictly positive; smallest eigenvalue {b_min.flat[i]:.3e}")
    p_hat = holder_conjugate(p)
    s_half = la.sqrtm_psd(_arr(sigma))
    lhs = la.trace_real(s_half @ _arr(a) @ s_half @ _arr(b))
    rhs = weighted_lp_norm(a, p, sigma) * weighted_lp_norm(b, p_hat, sigma)
    return InequalityMargin(lhs, rhs, f"rholder p={p!r}")


def check_reverse_alt(a, b, r, a_exp, b_exp) -> InequalityMargin:
    """Margin of the reversed trace inequality with Schatten-norm correction.

    lhs = (tr B^r/2 A^r B^r/2)^r ||A^(1-r)/2||_a^2r ||B^(1-r)/2||_b^2r and
    rhs = (tr B^1/2 A B^1/2)^r, for exponents with 1/(2r) = 1/2 + 1/a + 1/b.
    Also takes stacks (..., d, d) of arrays, with ``r``, ``a_exp`` and
    ``b_exp`` given once or per member; the margin then holds arrays.
    """
    r, a_exp, b_exp = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (r, a_exp, b_exp)))
    i = la.first_member(~((0.0 < r) & (r <= 1.0)))
    if i is not None:
        raise DomainError(f"r must lie in (0,1]; got {float(r.flat[i])!r}")
    inv_a = np.where(np.isinf(a_exp), 0.0, 1.0 / a_exp)
    inv_b = np.where(np.isinf(b_exp), 0.0, 1.0 / b_exp)
    i = la.first_member(np.abs(1.0 / (2.0 * r) - 0.5 - inv_a - inv_b) > 1e-12)
    if i is not None:
        raise PreconditionError(
            f"exponent relation 1/(2r) = 1/2 + 1/a + 1/b violated for "
            f"r={float(r.flat[i])!r}, a={float(a_exp.flat[i])!r}, b={float(b_exp.flat[i])!r}"
        )
    a_arr, b_arr = _arr(a), _arr(b)
    b_rhalf = la.powm_psd(b_arr, r / 2.0)
    core = la.hermitize(b_rhalf @ la.powm_psd(a_arr, r) @ b_rhalf, tol=1e-8)
    term = la.trace_real(core)
    a_factor = schatten_norm(la.powm_psd(a_arr, (1.0 - r) / 2.0), a_exp)
    b_factor = schatten_norm(la.powm_psd(b_arr, (1.0 - r) / 2.0), b_exp)
    lhs = la.per_member(
        lambda t, af, bf, rr: (max(t, 0.0) ** rr) * af ** (2.0 * rr) * bf ** (2.0 * rr),
        term, a_factor, b_factor, r)
    b_half = la.sqrtm_psd(b_arr)
    base = la.trace_real(la.hermitize(b_half @ a_arr @ b_half, tol=1e-8))
    rhs = la.per_member(lambda t, rr: max(t, 0.0) ** rr, base, r)
    return InequalityMargin(
        lhs, rhs, f"ralt r={la.scalar_or_array(r)!r} a={la.scalar_or_array(a_exp)!r} "
        f"b={la.scalar_or_array(b_exp)!r}")
