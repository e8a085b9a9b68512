"""Finite-blocklength bound evaluators: encoded-divergence lower estimates,
the rate-constrained bottleneck supremum, the key trace inequality behind the
second-order strong converse, the strong-converse report itself, image-size
bounds, and the source-coding rate bound.

Conventions: all rates and entropies in nats.  Each bound is only valid above
an explicit blocklength threshold, enforced here as a hard precondition
rather than silently extrapolated.
"""

from __future__ import annotations

import math

import numpy as np

from . import _linalg as la
from .bottleneck import _DeltaWork, _solve_delta, delta_star
from .entropy import relative_entropy
from .errors import (
    DimensionMismatchError,
    DomainError,
    PreconditionError,
)
from .hyptest import (
    CQSource,
    _test_entries,
    encoder_chunks,
    encoder_count,
    encoder_rows,
    message_blocks,
    product_stack,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    _as_dims,
    density_stack,
    stack_entries,
)
from .reports import BoundReport
from .semigroup import InequalityMargin, psi_map_sites

#: the dual search doubles the Lagrangian weight c up to this value; past it
#: the c -> infinity endpoint I(X;Y) decides
_C_CAP = 2.0**20
#: the dual search stops once its bracket in s = 1/c is this narrow
_S_TOL = 1e-7

#: (delta_star(c), I(U*_c;Y), I(U*_c;X)) by (source, c, u_size, multistarts),
#: oldest dropped first beyond this many entries
_DELTA_STAR_CACHE_SIZE = 256
_delta_star_cache: dict = {}


def source_entropy(src: CQSource) -> float:
    """H(X) of the input distribution, in nats."""
    return float(-np.sum(src.q_x * np.log(src.q_x)))


def source_mutual_information(src: CQSource) -> float:
    """I(X;Y) = S(avg) - sum_x Q(x) S(rho_x), in nats."""
    return la.entropy_psd(src.rho_y.entries) - source_conditional_output_entropy(src)


def source_conditional_output_entropy(src: CQSource) -> float:
    """H(Y|X) = sum_x Q(x) S(rho_x), in nats."""
    return float(sum(q * la.entropy_psd(s.entries) for q, s in zip(src.q_x, src.states)))


def k_epsilon(eta: float, gamma: float, x_size: int, eps: float) -> float:
    """Second-order constant 2 ln(gamma eta) sqrt(3 eta ln(4|X|/(1-eps)))
    + 2 sqrt(2 gamma ln(4/(1-eps)))."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    first = 2.0 * math.log(gamma * eta) * math.sqrt(3.0 * eta * math.log(4.0 * x_size / (1.0 - eps)))
    second = 2.0 * math.sqrt(2.0 * gamma * math.log(4.0 / (1.0 - eps)))
    return first + second


def image_size_constant(eta: float, gamma: float, c: float, x_size: int,
                        eps: float, delta: float) -> float:
    """Second-order constant ln(gamma^c eta^(c+1)) sqrt(3 eta ln(|X|/eps))
    + 2c sqrt((gamma-1) ln(1/delta))."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0,1); got {delta!r}")
    first = (c * math.log(gamma) + (c + 1.0) * math.log(eta)) * math.sqrt(
        3.0 * eta * math.log(x_size / eps)
    )
    second = 2.0 * c * math.sqrt(max(gamma - 1.0, 0.0) * math.log(1.0 / delta))
    return first + second


# ---------------------------------------------------------------------------
# encoded-divergence estimates


def theta_n_lower(src0: CQSource, src1_states, n: int, r1: float,
                  r2_infinite: bool = True) -> float:
    """Best normalized divergence between encoded null and alternative over
    enumerated deterministic classical encoders at rate ``r1``.

    A certified lower estimate of the n-letter encoded-divergence supremum
    (the enumeration covers a sub-class of the admissible encoders), clamped
    at 0 as every divergence is (Klein's inequality).  The alternative shares
    the input distribution and replaces the output states by
    ``src1_states``; one encoder per symmetry orbit is evaluated
    (``encoder_chunks``).  Message blocks of mass at most ``BLOCK_MASS_TOL``
    are dropped, as ``message_blocks`` drops them.
    """
    if not r2_infinite:
        raise DomainError("only the uncompressed-side regime (r2 = infinity) is supported")
    if n < 1:
        raise DomainError("n must be a positive integer")
    if r1 < 0.0:
        raise DomainError(f"rate must be nonnegative; got {r1!r}")
    src1_states = tuple(src1_states)
    if len(src1_states) != src0.size:
        raise DimensionMismatchError("alternative family must match the alphabet")
    w_size, _ = encoder_count(n, r1, src0.size ** n)
    weights, null_mats = product_stack(src0.q_x, stack_entries(src0.states), n)
    _, alt_mats = product_stack(src0.q_x, stack_entries(src1_states), n)
    best = -math.inf
    for chunk in encoder_chunks(w_size, src0.size, n, null_mats.shape[-1]):
        enc, mass, rows = encoder_rows(chunk, weights)
        kept, null_blocks = message_blocks(rows, mass, null_mats)
        _, alt_blocks = message_blocks(rows, mass, alt_mats)
        p = mass[kept]
        d = relative_entropy(density_stack(null_blocks / p[:, None, None]),
                             la.hermitize(alt_blocks / p[:, None, None]))
        totals = [0.0] * len(chunk)
        for e, pe, de in zip(enc[kept].tolist(), p.tolist(), d.tolist()):
            totals[e] += pe * de
        best = max(best, max(totals) / n)
    return max(0.0, float(best))


# ---------------------------------------------------------------------------
# rate-constrained bottleneck supremum


def _delta_star_value(src: CQSource, c: float, u_size: int, multistarts: int):
    """(delta_star(c), I(U*_c;Y), I(U*_c;X)) of ``src`` against its average
    output, computed once; U*_c is the maximizing channel at c.

    delta_star(c) does not depend on the rate, so every rate, command and
    sweep point on one source shares the same curve; the solver is
    deterministic, so a reused value is the value a new solve would give.
    """
    key = (
        src.q_x.tobytes(),
        tuple(s.entries.tobytes() for s in src.states),
        src.d_y,
        float(c),
        int(u_size),
        int(multistarts),
    )
    hit = _delta_star_cache.get(key)
    if hit is None:
        res = delta_star(src.q_x, src.states, src.rho_y, c, u_size, multistarts=multistarts)
        hit = (res.value,) + res.informations
        if len(_delta_star_cache) >= _DELTA_STAR_CACHE_SIZE:
            del _delta_star_cache[next(iter(_delta_star_cache))]
        _delta_star_cache[key] = hit
    return hit


def _lagrangian_min(src: CQSource, offset: float, u_size: int | None, multistarts: int):
    """inf over c >= 1 of L(c) = (delta_star(c) + offset)/c, with the
    c -> infinity endpoint I(X;Y), and the curve it came from.

    In s = 1/c, L is convex with slope offset - I(U*_c;X) (envelope theorem),
    so its minimum lies where the maximizer's I(U;X) crosses the offset.  The
    search stops at c = 1 if the slope there is <= 0; otherwise it doubles c
    until the slope changes sign (up to ``_C_CAP``, past which the endpoint
    decides) and narrows that bracket in s by regula falsi with the Illinois
    modification, bisecting when the secant point is not strictly inside.
    While the slope is positive U*_c is feasible, and L(c) >= I(U*_c;Y); so
    once I(U*_c;Y) reaches I(X;Y) (within 1e-12) the endpoint decides and the
    doubling stops there.  Returns (value, [(c, L(c)) in evaluation order] +
    [(inf, I(X;Y))]); the value is the least entry of the curve.
    """
    u = u_size if u_size is not None else src.size + 1
    i_xy = source_mutual_information(src)
    curve = []

    def slope(s):
        """(offset - I(U*_c;X), I(U*_c;Y)) at c = 1/s."""
        c = 1.0 / s
        value, i_uy, i_ux = _delta_star_value(src, c, u, multistarts)
        curve.append((c, (value + offset) / c))
        return offset - i_ux, i_uy

    lo, (g_lo, i_uy) = 1.0, slope(1.0)
    hi, g_hi = lo, g_lo
    while g_lo > 0.0 and i_uy < i_xy - 1e-12 and lo > 1.0 / _C_CAP:
        hi, g_hi = lo, g_lo
        lo /= 2.0
        g_lo, i_uy = slope(lo)
    moved = 0  # the end the last step moved: -1 lo, 1 hi
    while g_lo < 0.0 < g_hi and hi - lo > _S_TOL:
        s = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        g, _ = slope(s)
        # Illinois: an end kept twice in a row has its slope halved
        if g <= 0.0:
            lo, g_lo, g_hi, moved = s, g, g_hi / 2.0 if moved < 0 else g_hi, -1
        else:
            hi, g_hi, g_lo, moved = s, g, g_lo / 2.0 if moved > 0 else g_lo, 1
    curve.append((math.inf, i_xy))
    return min(v for _, v in curve), curve


def bottleneck_sup_constrained(src: CQSource, r: float, u_size: int | None = None,
                               multistarts: int = 16):
    """sup of I(U;Y) subject to I(U;X) <= r, through its Lagrangian relaxation
    inf over c >= 1 of (delta_star(c) + r)/c.

    At r >= H(X) the identity map is feasible and optimal, and the value is
    I(X;Y) with no solve.  Below, ``_lagrangian_min`` finds the optimal c.
    Returns (value, lagrangian curve); the curve ends with the (inf, I(X;Y))
    entry.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError(f"rate must be finite and nonnegative; got {r!r}")
    if r >= source_entropy(src):
        limit = source_mutual_information(src)
        return limit, [(math.inf, limit)]
    return _lagrangian_min(src, r, u_size, multistarts)


# ---------------------------------------------------------------------------
# the key trace inequality


def _n_letter_delta(mu_n, src: CQSource, t_n, ref, c: float, multistarts: int):
    """The checks and the Delta term of the key inequality and the
    single-test image-size bound: the test entries, n, mu_n on its support
    (sequences in lexicographic order), tr[rho_x^n T] on that support, ref^n,
    and Delta(mu_n, ref^n, c) for the single-letter ``ref``."""
    t_arr = _test_entries(t_n)
    dims = _as_dims(t_n)
    if any(d != src.d_y for d in dims):
        raise DimensionMismatchError(
            f"test subsystems {dims} do not match the output dimension {src.d_y}"
        )
    n = len(dims)
    work = _DeltaWork(mu_n, src.states, ref, c, n)
    d_val = _solve_delta(work, multistarts)[0]
    return t_arr, n, work.mu_s, work.traces(t_arr), work.nu_n, d_val


def verify_key_inequality(mu_n, src: CQSource, t_n, c: float, t: float,
                          delta_multistarts: int = 16) -> InequalityMargin:
    """Margin of the amplification inequality
    (tr[avg^n Psi_t^n(T)])^c e^Delta >= sum mu(x^n) (tr[rho_x^n T])^(c(1+1/t)).

    ``mu_n`` is indexed in lexicographic product order over the alphabet.
    The greater side is reported as lhs.
    """
    if c <= 1.0:
        raise DomainError(f"c must exceed 1; got {c!r}")
    if t <= 0.0:
        raise DomainError(f"t must be positive; got {t!r}")
    t_arr, n, mu, traces, nu_n, d_val = _n_letter_delta(
        mu_n, src, t_n, src.rho_y, c, delta_multistarts)
    t_wrapped = HermitianOperator(t_arr, (src.d_y,) * n)
    moved = psi_map_sites(t_wrapped, t, src.gamma, src.rho_y)
    base = la.inner_real(nu_n.entries, moved.entries)
    lhs = max(base, 0.0) ** c * math.exp(d_val)
    exponent = c * (1.0 + 1.0 / t)
    rhs = 0.0
    for m, tr in zip(mu, traces):
        rhs += m * max(0.0, tr)**exponent
    return InequalityMargin(lhs, rhs)


# ---------------------------------------------------------------------------
# strong converse, image size, and source coding reports


def _check_blocklength(src: CQSource, eps: float, n: int):
    """Reject eps outside (0,1) and n at or below 3 eta ln(4|X|/(1-eps))."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    threshold = 3.0 * src.eta * math.log(4.0 * src.size / (1.0 - eps))
    if n <= threshold:
        raise PreconditionError(
            f"n={n} must exceed 3 eta ln(4|X|/(1-eps)) = {threshold!r}"
        )


def sc_bound_stein(src: CQSource, r: float, eps: float, n: int,
                   u_size: int | None = None, multistarts: int = 16) -> BoundReport:
    """Second-order upper bound on the normalized type-II error exponent of
    rate-limited testing against independence, valid for blocklengths above
    3 eta ln(4|X|/(1-eps)).
    """
    _check_blocklength(src, eps, n)
    first, curve = bottleneck_sup_constrained(src, r, u_size, multistarts=multistarts)
    k_eps = k_epsilon(src.eta, src.gamma, src.size, eps)
    return BoundReport(
        name="stein-strong-converse",
        first_order=first,
        second_order=k_eps / math.sqrt(n),
        third_order=2.0 / n * math.log(4.0 / (1.0 - eps)),
        constants={"eta": src.eta, "gamma": src.gamma, "K_eps": k_eps,
                   "r": r, "eps": eps, "n": n},
        witnesses={"lagrangian_curve": curve},
    )


def image_size_bound_i(mu_n, src: CQSource, sigma: DensityMatrix, t_n, c: float,
                       delta_prob: float, delta_multistarts: int = 16) -> InequalityMargin:
    """Margin of the single-test image-size bound
    ln P(tr[rho_x^n T] >= delta) - c ln tr[sigma^n T]
      <= Delta(mu_n, sigma^n, c) + 2c sqrt(ln(1/delta)) sqrt(n(gamma-1)) + c ln(1/delta).

    The bound side is reported as lhs so the margin is nonnegative when the
    inequality holds; a zero event probability makes it vacuously +inf.
    """
    if c <= 0.0:
        raise DomainError(f"c must be positive; got {c!r}")
    if not 0.0 < delta_prob < 1.0:
        raise DomainError(f"delta must lie in (0,1); got {delta_prob!r}")
    t_arr, n, mu, traces, sigma_n, d_val = _n_letter_delta(
        mu_n, src, t_n, sigma, c, delta_multistarts)
    prob = float(np.sum(mu[traces >= delta_prob]))
    denom = la.inner_real(sigma_n.entries, t_arr)
    bound = (
        d_val
        + 2.0 * c * math.sqrt(math.log(1.0 / delta_prob)) * math.sqrt(n * max(src.gamma - 1.0, 0.0))
        + c * math.log(1.0 / delta_prob)
    )
    if prob <= 0.0:
        observed = -math.inf
    elif denom <= 0.0:
        observed = math.inf
    else:
        observed = math.log(prob) - c * math.log(denom)
    return InequalityMargin(bound, observed)


def image_size_bound_ii(q, src: CQSource, sigma: DensityMatrix, c: float,
                        delta_prob: float, eps: float, n: int,
                        u_size: int | None = None, multistarts: int = 64) -> BoundReport:
    """Single-letter image-size report n delta* + A sqrt(n) + c ln(1/delta),
    valid for n > 3 eta ln(|X|/eps)."""
    if c <= 0.0:
        raise DomainError(f"c must be positive; got {c!r}")
    q = np.asarray(q, dtype=float)
    eta = float(1.0 / np.min(q))
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    threshold = 3.0 * eta * math.log(src.size / eps)
    if n <= threshold:
        raise PreconditionError(
            f"n={n} must exceed 3 eta ln(|X|/eps) = {threshold!r}"
        )
    u = u_size if u_size is not None else src.size + 1
    star = delta_star(q, src.states, sigma, c, u, multistarts=multistarts).value
    a_const = image_size_constant(eta, src.gamma, c, src.size, eps, delta_prob)
    return BoundReport(
        name="image-size-single-letter",
        first_order=n * star,
        second_order=a_const * math.sqrt(n),
        third_order=c * math.log(1.0 / delta_prob),
        constants={"A": a_const, "eta": eta, "gamma": src.gamma, "c": c,
                   "eps": eps, "delta": delta_prob, "n": n},
    )


def source_coding_first_order(src: CQSource, log_w1: float,
                              u_size: int | None = None, multistarts: int = 16) -> float:
    """inf of H(Y|U) over chains U - X - Y with I(U;X) <= log_w1, through the
    dual sup over c >= 1 of S(avg) - (delta_star(c) + log_w1)/c.

    At log_w1 >= H(X) the chain U = X is feasible and optimal, giving H(Y|X)
    with no solve; at log_w1 = 0 the value is S(avg).  Below H(X) the dual is
    minimized by ``_lagrangian_min``, as for ``bottleneck_sup_constrained``.
    """
    if not 0.0 <= log_w1 < math.inf:
        raise DomainError(f"log_w1 must be finite and nonnegative; got {log_w1!r}")
    if log_w1 >= source_entropy(src) - 1e-12:
        return source_conditional_output_entropy(src)
    return la.entropy_psd(src.rho_y.entries) - _lagrangian_min(src, log_w1, u_size, multistarts)[0]


def source_coding_bound(src: CQSource, eps: float, n: int, log_w1: float,
                        u_size: int | None = None, multistarts: int = 16) -> float:
    """Lower bound on the normalized quantum rate of source compression with
    rate-limited classical side information, at average square fidelity
    1 - eps; valid for n > 3 eta ln(4|X|/(1-eps))."""
    _check_blocklength(src, eps, n)
    first = source_coding_first_order(src, log_w1, u_size, multistarts=multistarts)
    d_y = src.d_y
    second = (
        2.0 * math.log(d_y * src.eta) * math.sqrt(3.0 * src.eta * math.log(4.0 * src.size / (1.0 - eps)))
        + 2.0 * math.sqrt(d_y * math.log(2.0 / (1.0 - eps)))
    ) / math.sqrt(n)
    third = 2.0 / n * math.log(4.0 / (1.0 - eps))
    return first - second - third

