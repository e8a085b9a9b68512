"""Finite-blocklength bound evaluators: encoded-divergence lower estimates,
the rate-constrained bottleneck supremum, the key trace inequality behind the
second-order strong converse, the strong-converse report itself, image-size
bounds, and the source-coding rate bound.

Conventions: all rates and entropies in nats.  Each bound is only valid above
an explicit blocklength threshold, enforced here as a hard precondition
rather than silently extrapolated.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from . import _linalg as la
from .bottleneck import DeltaInstance, chain_informations, delta, delta_star
from .entropy import relative_entropy
from .errors import (
    DimensionMismatchError,
    DomainError,
    PreconditionError,
)
from .hyptest import CQSource, StochasticChannel, encoder_count
from .operators import DensityMatrix, HermitianOperator, tensor_all
from .reports import BoundReport
from .semigroup import InequalityMargin, psi_map_sites

#: Lagrangian weight grid for the rate-constrained supremum
C_GRID = tuple(1.0 + 0.25 * k for k in range(61))  # 1, 1.25, ..., 16

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: delta_star(c) values by (source, c, u_size, multistarts), oldest dropped
#: first beyond this many entries
_DELTA_STAR_CACHE_SIZE = 4096
_delta_star_cache: dict = {}
_delta_star_lock = threading.Lock()


def source_entropy(src: CQSource) -> float:
    """H(X) of the input distribution, in nats."""
    return float(-np.sum(src.q_x * np.log(src.q_x)))


def source_mutual_information(src: CQSource) -> float:
    """I(X;Y) = S(avg) - sum_x Q(x) S(rho_x), in nats."""
    s_avg = la.entropy_psd(src.rho_y.entries)
    s_cond = sum(q * la.entropy_psd(s.entries) for q, s in zip(src.q_x, src.states))
    return s_avg - s_cond


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


def _sequence_weights_states(src: CQSource, states, n: int):
    """Product weights and kron'd states for every length-n sequence."""
    labels = list(itertools.product(range(src.size), repeat=n))
    weights = np.array([float(np.prod([src.q_x[i] for i in seq])) for seq in labels])
    mats = [tensor_all([states[i] for i in seq]).entries for seq in labels]
    return labels, weights, mats


def theta_n_lower(src0: CQSource, src1_states, n: int, r1: float,
                  r2_infinite: bool = True) -> float:
    """Best normalized divergence between encoded null and alternative over
    enumerated deterministic classical encoders at rate ``r1``.

    A certified lower estimate of the n-letter encoded-divergence supremum
    (the enumeration covers a sub-class of the admissible encoders).  The
    alternative hypothesis shares the input distribution and replaces the
    output states by ``src1_states``.
    """
    if not r2_infinite:
        raise DomainError("only the uncompressed-side regime (r2 = infinity) is supported")
    if n < 1:
        raise DomainError("n must be a positive integer")
    src1_states = tuple(src1_states)
    if len(src1_states) != src0.size:
        raise DimensionMismatchError("alternative family must match the alphabet")
    w_size, _ = encoder_count(n, r1, src0.size ** n)
    _, weights, null_mats = _sequence_weights_states(src0, src0.states, n)
    _, _, alt_mats = _sequence_weights_states(src0, src1_states, n)
    seq_count = len(weights)

    def encoded_divergence(assignment):
        total = 0.0
        for w in range(w_size):
            members = [i for i in range(seq_count) if assignment[i] == w]
            if not members:
                continue
            p = float(np.sum(weights[members]))
            if p <= 0.0:
                continue
            null_block = sum(weights[i] * null_mats[i] for i in members) / p
            alt_block = sum(weights[i] * alt_mats[i] for i in members) / p
            d = relative_entropy(DensityMatrix(null_block), HermitianOperator(alt_block)).nats
            if math.isinf(d):
                return math.inf
            total += p * d
        return total / n

    assignments = list(itertools.product(range(w_size), repeat=seq_count))
    values = [encoded_divergence(a) for a in assignments]
    return float(max(values))


def stein_independence_objective(src: CQSource, chan: StochasticChannel):
    """(I(U;Y), I(U;X')) for the chain U <- X -> Y with a classical channel.

    I(U;Y) never exceeds I(U;X') (the output side is a further processing of
    the input copy).
    """
    if chan.in_alphabet != src.alphabet:
        raise DimensionMismatchError("channel input alphabet does not match the source")
    stack = np.stack([s.entries for s in src.states])
    return chain_informations(src.q_x, stack, src.rho_y.entries, chan.kernel)


# ---------------------------------------------------------------------------
# rate-constrained bottleneck supremum


def _delta_star_value(src: CQSource, c: float, u_size: int, multistarts: int) -> float:
    """delta_star(c) of ``src`` against its average output, computed once.

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
    with _delta_star_lock:
        hit = _delta_star_cache.get(key)
    if hit is not None:
        return hit
    value = delta_star(
        src.q_x, src.states, src.rho_y, c, u_size, multistarts=multistarts
    ).value
    with _delta_star_lock:
        if len(_delta_star_cache) >= _DELTA_STAR_CACHE_SIZE:
            del _delta_star_cache[next(iter(_delta_star_cache))]
        _delta_star_cache[key] = value
    return value


def _golden_min(fn, lo: float, hi: float, iters: int = 18):
    """Golden-section minimization; returns the best sampled (x, f(x))."""
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(c1), fn(c2)
    best = min((f1, c1), (f2, c2))
    for _ in range(iters):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = fn(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = fn(c2)
        best = min(best, (f1, c1), (f2, c2))
    return best[1], best[0]


def bottleneck_sup_constrained(src: CQSource, r: float, u_size: int | None = None,
                               multistarts: int = 16):
    """sup of I(U;Y) subject to I(U;X) <= r, through its Lagrangian relaxation
    inf over c >= 1 of (delta_star(c) + r)/c.

    Evaluated on the weight grid {1, 1.25, ..., 16} with golden-section
    refinement around the grid argmin, plus the c -> infinity endpoint whose
    Lagrangian value is I(X;Y); that endpoint makes the value exact (the
    identity map attains it) whenever r >= H(X).  Returns
    (value, lagrangian curve); the curve ends with the (inf, I(X;Y)) entry.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError(f"rate must be finite and nonnegative; got {r!r}")
    u = u_size if u_size is not None else src.size + 1

    def lagrangian(c):
        return (_delta_star_value(src, c, u, multistarts) + r) / c

    curve = [(c, lagrangian(c)) for c in C_GRID]
    best_c, best_val = min(((c, v) for c, v in curve), key=lambda cv: (cv[1], cv[0]))
    lo = max(C_GRID[0], best_c - 0.25)
    hi = min(C_GRID[-1], best_c + 0.25)
    _, refined = _golden_min(lagrangian, lo, hi)
    limit = source_mutual_information(src)
    curve.append((math.inf, limit))
    value = min(best_val, refined, limit)
    return value, curve


# ---------------------------------------------------------------------------
# the key trace inequality


def _validate_test(t_op, d_y: int):
    arr = t_op.entries if hasattr(t_op, "entries") else np.asarray(t_op, dtype=complex)
    w = np.linalg.eigvalsh(arr)
    if w[0] < -1e-10 or w[-1] > 1.0 + 1e-10:
        raise DomainError(
            f"not a valid test: spectrum [{w[0]:.3e}, {w[-1]:.6f}] outside [0,1]"
        )
    dims = getattr(t_op, "subsystem_dims", (arr.shape[0],))
    if any(d != d_y for d in dims):
        raise DimensionMismatchError(
            f"test subsystems {dims} do not match the output dimension {d_y}"
        )
    return arr, len(dims)


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
    t_arr, n = _validate_test(t_n, src.d_y)
    mu = np.asarray(mu_n, dtype=float)
    if mu.shape[0] != src.size**n:
        raise DimensionMismatchError(
            f"mu_n has {mu.shape[0]} entries; expected |X|^n = {src.size ** n}"
        )
    labels, _, mats = _sequence_weights_states(src, src.states, n)
    support = np.flatnonzero(mu > 0.0)
    states = [DensityMatrix(mats[i]) for i in support]
    nu_n = tensor_all([src.rho_y] * n)
    inst = DeltaInstance(mu[support], states, nu_n, c)
    d_val = delta(inst, multistarts=delta_multistarts).value

    t_wrapped = HermitianOperator(t_arr, (src.d_y,) * n)
    moved = psi_map_sites(t_wrapped, t, src.gamma, src.rho_y)
    base = la.inner_real(nu_n.entries, moved.entries)
    lhs = max(base, 0.0) ** c * math.exp(d_val)
    exponent = c * (1.0 + 1.0 / t)
    rhs = 0.0
    for i in support:
        tr = max(0.0, la.inner_real(mats[i], t_arr))
        rhs += mu[i] * tr**exponent
    return InequalityMargin(lhs, rhs, f"key c={c!r} t={t!r} n={n}")


# ---------------------------------------------------------------------------
# strong converse, image size, and source coding reports


def sc_bound_stein(src: CQSource, r: float, eps: float, n: int,
                   u_size: int | None = None, multistarts: int = 16) -> BoundReport:
    """Second-order upper bound on the normalized type-II error exponent of
    rate-limited testing against independence, valid for blocklengths above
    3 eta ln(4|X|/(1-eps)).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    threshold = 3.0 * src.eta * math.log(4.0 * src.size / (1.0 - eps))
    if n <= threshold:
        raise PreconditionError(
            f"n={n} must exceed 3 eta ln(4|X|/(1-eps)) = {threshold!r}"
        )
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
    t_arr, n = _validate_test(t_n, src.d_y)
    mu = np.asarray(mu_n, dtype=float)
    if mu.shape[0] != src.size**n:
        raise DimensionMismatchError(
            f"mu_n has {mu.shape[0]} entries; expected |X|^n = {src.size ** n}"
        )
    labels, _, mats = _sequence_weights_states(src, src.states, n)
    support = np.flatnonzero(mu > 0.0)
    traces = np.array([la.inner_real(mats[i], t_arr) for i in support])
    prob = float(np.sum(mu[support][traces >= delta_prob]))
    sigma_n = tensor_all([sigma] * n)
    denom = la.inner_real(sigma_n.entries, t_arr)

    states = [DensityMatrix(mats[i]) for i in support]
    inst = DeltaInstance(mu[support], states, sigma_n, c)
    d_val = delta(inst, multistarts=delta_multistarts).value
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
    return InequalityMargin(bound, observed, f"image-size-i c={c!r} delta={delta_prob!r} n={n}")


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
    exactly; at log_w1 = 0 the value is S(avg).
    """
    if not 0.0 <= log_w1 < math.inf:
        raise DomainError(f"log_w1 must be finite and nonnegative; got {log_w1!r}")
    u = u_size if u_size is not None else src.size + 1
    s_avg = la.entropy_psd(src.rho_y.entries)

    def dual(c):
        return s_avg - (_delta_star_value(src, c, u, multistarts) + log_w1) / c

    values = [(dual(c), c) for c in C_GRID]
    best_val, best_c = max(values)
    lo = max(C_GRID[0], best_c - 0.25)
    hi = min(C_GRID[-1], best_c + 0.25)
    _, refined = _golden_min(lambda c: -dual(c), lo, hi)
    value = max(best_val, -refined)
    if log_w1 >= source_entropy(src) - 1e-12:
        value = max(value, source_conditional_output_entropy(src))
    return value


def source_coding_bound(src: CQSource, eps: float, n: int, log_w1: float,
                        u_size: int | None = None, multistarts: int = 16) -> float:
    """Lower bound on the normalized quantum rate of source compression with
    rate-limited classical side information, at average square fidelity
    1 - eps; valid for n > 3 eta ln(4|X|/(1-eps))."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    threshold = 3.0 * src.eta * math.log(4.0 * src.size / (1.0 - eps))
    if n <= threshold:
        raise PreconditionError(
            f"n={n} must exceed 3 eta ln(4|X|/(1-eps)) = {threshold!r}"
        )
    first = source_coding_first_order(src, log_w1, u_size, multistarts=multistarts)
    d_y = src.d_y
    second = (
        2.0 * math.log(d_y * src.eta) * math.sqrt(3.0 * src.eta * math.log(4.0 * src.size / (1.0 - eps)))
        + 2.0 * math.sqrt(d_y * math.log(2.0 / (1.0 - eps)))
    ) / math.sqrt(n)
    third = 2.0 / n * math.log(4.0 / (1.0 - eps))
    return first - second - third


def fq_point(src: CQSource, chan: StochasticChannel, r_budget: float):
    """Point evaluation of the purified-side objective 2 H(Y) - I(U;Y) with a
    feasibility flag I(U;X') <= r_budget; no optimization over channels."""
    i_uy, i_ux = stein_independence_objective(src, chan)
    s_y = la.entropy_psd(src.rho_y.entries)
    return (i_ux <= r_budget), 2.0 * s_y - i_uy
