"""Information-bottleneck style functionals for classical-quantum channels.

Two central objects:

* ``delta`` maximizes  c D(sum_x gamma(x) rho_x || nu) - D(gamma || mu)  over
  distributions gamma absolutely continuous w.r.t. a (possibly unnormalized)
  measure mu, by a multistart fixed-point iteration with a simplex-grid
  cross-check on small alphabets.
* ``delta_star`` maximizes  c D(sigma_{Y|U} || nu | P_U) - D(P_{X|U} || q | P_U)
  over auxiliary channels P_{U|X} by multistart entropic mirror ascent.

Also here: the variational form of ``delta``, the mixed-input functional used
by the continuity bound, dominated typical sets, and the single-letter gap
certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from . import _linalg as la
from .config import KERNEL_OVERLAP_TOL, SUPPORT_TOL, TYPICAL_ENUM_CAP
from .errors import (
    DimensionMismatchError,
    DomainError,
    PreconditionError,
    ResourceCapError,
    ValidationError,
)
from .hyptest import StochasticChannel
from .operators import DensityMatrix, HermitianOperator, tensor_all
from .reports import BoundReport
from .semigroup import InequalityMargin

#: base seed for the deterministic multistart generators
_MULTISTART_SEED = 0x5EED

#: rows of P_U|X with this little mass are excluded from conditional terms
_ROW_MASS_TOL = 1e-14

#: alphabet size for exhaustive Delta computations at tensor level
MAX_DELTA_SUPPORT = 256


@dataclass(frozen=True)
class DeltaInstance:
    """One bottleneck trade-off instance.

    ``mu`` is a nonnegative measure of total mass at most 1, ``states`` maps
    each symbol to its channel output, ``nu`` is a full-rank PSD reference on
    the output space, and ``c`` is the positive trade-off weight.
    """

    mu: np.ndarray
    states: tuple
    nu: HermitianOperator
    c: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "states", tuple(self.states))
        if mu.ndim != 1 or mu.shape[0] != len(self.states):
            raise ValidationError("mu and states must have equal length")
        if np.any(mu < 0.0):
            raise ValidationError("mu must be entrywise nonnegative")
        if float(mu.sum()) > 1.0 + 1e-9:
            raise ValidationError(f"mu has total mass {float(mu.sum())!r} > 1")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValidationError(f"c must be positive and finite; got {self.c!r}")
        nu_arr = self.nu.entries if hasattr(self.nu, "entries") else np.asarray(self.nu)
        if float(np.min(np.linalg.eigvalsh(nu_arr))) < 1e-10:
            raise ValidationError("nu must be full rank (min eigenvalue >= 1e-10)")
        dims = {s.dim for s in self.states}
        if len(dims) != 1 or dims.pop() != nu_arr.shape[0]:
            raise DimensionMismatchError("states and nu live on different dimensions")

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.mu > 0.0)


class DeltaResult(NamedTuple):
    value: float
    gamma: np.ndarray


class DeltaStarResult(NamedTuple):
    value: float
    best: "ChannelWithPosterior"


@dataclass(frozen=True)
class ChannelWithPosterior:
    """An auxiliary channel with its induced marginal, posterior, and outputs.

    Rows of the posterior and conditional outputs are only meaningful for
    messages u with marginal mass above 1e-14; others are zeroed/None.
    """

    p_u_given_x: StochasticChannel
    p_u: np.ndarray
    p_x_given_u: np.ndarray
    sigma_y_given_u: tuple


def _stack(states) -> np.ndarray:
    return np.stack([s.entries for s in states])


def _traces_against(stack: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Re tr[stack_i mat] for each slice."""
    return np.einsum("xjk,kj->x", stack, mat).real


class _DeltaWork:
    """Precomputed pieces for one ``delta`` instance, on the support of mu."""

    def __init__(self, inst: DeltaInstance):
        self.support = inst.support
        if self.support.size == 0:
            raise DomainError("mu has empty support")
        self.c = inst.c
        self.mu_s = inst.mu[self.support]
        self.log_mu = np.log(self.mu_s)
        self.stack = _stack([inst.states[i] for i in self.support])
        nu_arr = inst.nu.entries if hasattr(inst.nu, "entries") else np.asarray(inst.nu)
        self.log_nu = la.logm_psd(nu_arr)
        self.tr_lognu = self.traces(self.log_nu)

    def mix(self, gamma):
        """sum_x gamma(x) rho_x over the support."""
        return np.einsum("x,xjk->jk", gamma, self.stack)

    def traces(self, mat):
        """Re tr[rho_x mat] for each support symbol."""
        return _traces_against(self.stack, mat)

    def objective_and_eig(self, gamma):
        sigma = self.mix(gamma)
        w, v = np.linalg.eigh(sigma)
        pos = w > SUPPORT_TOL
        tr_logsig = float(np.sum(w[pos] * np.log(w[pos])))
        d_out = tr_logsig - la.inner_real(sigma, self.log_nu)
        g_pos = gamma[gamma > 0.0]
        m_pos = self.mu_s[gamma > 0.0]
        d_in = float(np.sum(g_pos * np.log(g_pos / m_pos)))
        return self.c * d_out - d_in, (w, v)

    def fixed_point_step(self, eig):
        w, v = eig
        pos = w > SUPPORT_TOL
        log_w = np.where(pos, np.log(np.maximum(w, SUPPORT_TOL)), 0.0)
        log_sigma = (v * log_w) @ v.conj().T
        scores = self.c * (self.traces(log_sigma) - self.tr_lognu)
        if not np.all(pos):
            ker = v[:, ~pos]
            proj = ker @ ker.conj().T
            overlap = self.traces(proj)
            scores = np.where(overlap > KERNEL_OVERLAP_TOL, -np.inf, scores)
        logits = self.log_mu + scores
        logits -= np.max(logits[np.isfinite(logits)])
        weights = np.exp(np.where(np.isfinite(logits), logits, -np.inf))
        total = weights.sum()
        if total <= 0.0:
            return None
        return weights / total


class _ProductDeltaWork(_DeltaWork):
    """``_DeltaWork`` for n-letter product states: symbol i of the support is
    rho_{s_1} (x) ... (x) rho_{s_n} for the sequence s = ``members[i]`` over
    the single-letter ``site_states``.

    Mixtures and traces are contracted one site at a time (Van Loan, "The
    ubiquitous Kronecker product", 2000), so no n-letter state is built and
    memory stays O(d^2n) instead of O(|X|^n d^2n).
    """

    def __init__(self, mu, site_states, members, nu_n: np.ndarray, c: float):
        mu = np.asarray(mu, dtype=float)
        self.support = np.flatnonzero(mu > 0.0)
        if self.support.size == 0:
            raise DomainError("mu has empty support")
        self.c = c
        self.mu_s = mu[self.support]
        self.log_mu = np.log(self.mu_s)
        self.sites = _stack(site_states)
        k = self.sites.shape[0]
        self.n = len(members[0])
        seqs = np.asarray([members[i] for i in self.support]).T
        self.flat = np.ravel_multi_index(tuple(seqs), (k,) * self.n)
        self.log_nu = la.logm_psd(nu_n)
        self.tr_lognu = self.traces(self.log_nu)

    def mix(self, gamma):
        k, d = self.sites.shape[0], self.sites.shape[1]
        full = np.zeros(k**self.n)
        full[self.flat] = gamma
        # acc[r, x, I, J]: r indexes the leading sites, x the next one to
        # contract, (I, J) the trailing sites already contracted
        acc = full.reshape(-1, k, 1, 1)
        for _ in range(self.n):
            acc = np.einsum("rxIJ,xij->riIjJ", acc, self.sites)
            rest, dim = acc.shape[0], acc.shape[1] * acc.shape[2]
            acc = acc.reshape(rest, dim, dim)
            if rest > 1:
                acc = acc.reshape(rest // k, k, dim, dim)
        return acc.reshape(d**self.n, d**self.n)

    def traces(self, mat):
        k, d = self.sites.shape[0], self.sites.shape[1]
        # acc[r, I, J]: r indexes the leading sites already contracted,
        # (I, J) the trailing sites of mat^T still to contract
        acc = np.asarray(mat).T.reshape(1, d**self.n, d**self.n)
        for _ in range(self.n):
            rest, dim = acc.shape[0], acc.shape[1] // d
            acc = acc.reshape(rest, d, dim, d, dim)
            acc = np.einsum("riIjJ,xij->rxIJ", acc, self.sites)
            acc = acc.reshape(rest * k, dim, dim)
        return acc.reshape(-1)[self.flat].real


def _delta_starts(k: int, count: int):
    """Uniform, vertex, and Dirichlet-random starting points on the simplex."""
    starts = [np.full(k, 1.0 / k)]
    for i in range(min(k, max(0, count - 1))):
        v = np.zeros(k)
        v[i] = 1.0
        starts.append(v)
    rng = np.random.default_rng(_MULTISTART_SEED)
    while len(starts) < count:
        starts.append(rng.dirichlet(np.ones(k)))
    return starts[:count]


def delta(inst: DeltaInstance, multistarts: int = 32, max_iter: int = 500,
          tol: float = 1e-10, cross_check: bool | None = None,
          grid_resolution: int = 64) -> DeltaResult:
    """Best value of c D(sigma_gamma || nu) - D(gamma || mu) over the simplex.

    Runs a multistart fixed-point iteration (the stationarity condition
    updates gamma(x) proportionally to mu(x) e^(c tr[rho_x ln T]) with
    T = e^(ln sigma_gamma - ln nu)) and keeps the best iterate.  On supports
    of size at most 3 (or when ``cross_check`` is forced) the result is
    cross-checked against an exhaustive simplex grid at the given resolution
    and must agree within 1e-3; the better of the two feasible values wins.
    """
    work = _DeltaWork(inst)
    best_val, best_gamma = _solve_delta(
        work, multistarts, max_iter, tol, cross_check, grid_resolution
    )
    full = np.zeros(inst.mu.shape[0])
    full[work.support] = best_gamma
    return DeltaResult(best_val, full)


def _solve_delta(work: _DeltaWork, multistarts: int = 32, max_iter: int = 500,
                 tol: float = 1e-10, cross_check: bool | None = None,
                 grid_resolution: int = 64):
    """(best value, best gamma on the support) for ``delta``."""
    k = work.support.size
    best_val, best_gamma = -math.inf, None
    for start in _delta_starts(k, multistarts):
        gamma = start
        prev = -math.inf
        start_best = -math.inf
        stalled = 0
        for _ in range(max_iter):
            val, eig = work.objective_and_eig(gamma)
            if val > best_val:
                best_val, best_gamma = val, gamma.copy()
            if abs(val - prev) < tol:
                break
            # a cycling iterate no longer improves its running best: cut it
            stalled = stalled + 1 if val <= start_best + 1e-12 else 0
            start_best = max(start_best, val)
            if stalled >= 20:
                break
            prev = val
            nxt = work.fixed_point_step(eig)
            if nxt is None:
                break
            gamma = nxt
    if cross_check is None:
        cross_check = k <= 3
    if cross_check:
        grid_val, grid_gamma = _delta_grid(work, k, grid_resolution)
        if abs(grid_val - best_val) > 1e-3 and grid_val > best_val:
            raise ValidationError(
                f"fixed-point value {best_val!r} disagrees with the "
                f"1/{grid_resolution} grid value {grid_val!r} beyond 1e-3"
            )
        if grid_val > best_val:
            best_val, best_gamma = grid_val, grid_gamma
    return best_val, best_gamma


def _delta_grid(work: _DeltaWork, k: int, resolution: int):
    best_val, best_gamma = -math.inf, None
    for comp in _compositions(resolution, k):
        gamma = np.asarray(comp, dtype=float) / resolution
        val, _ = work.objective_and_eig(gamma)
        if val > best_val:
            best_val, best_gamma = val, gamma
    return best_val, best_gamma


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def delta_grid_value(inst: DeltaInstance, resolution: int = 64) -> DeltaResult:
    """Exhaustive simplex-grid evaluation of the ``delta`` objective."""
    work = _DeltaWork(inst)
    val, gamma = _delta_grid(work, work.support.size, resolution)
    full = np.zeros(inst.mu.shape[0])
    full[work.support] = gamma
    return DeltaResult(val, full)


def delta_variational_value(inst: DeltaInstance, t_op) -> float:
    """ln sum_x mu(x) e^(c tr[rho_x ln T]) - c ln tr[e^(ln nu + ln T)].

    A lower form of ``delta``: never exceeds it, with equality at
    T = e^(ln sigma_gamma* - ln nu) for the maximizing gamma*.
    """
    t_arr = t_op.entries if hasattr(t_op, "entries") else np.asarray(t_op, dtype=complex)
    if float(np.min(np.linalg.eigvalsh(t_arr))) <= SUPPORT_TOL:
        raise DomainError("T must be positive definite")
    work = _DeltaWork(inst)
    log_t = la.logm_psd(t_arr)
    scores = work.c * _traces_against(work.stack, log_t)
    term1 = float(logsumexp(work.log_mu + scores))
    mix = work.log_nu + log_t
    term2 = work.c * math.log(la.trace_real(la.expm_herm(mix)))
    return term1 - term2


# ---------------------------------------------------------------------------
# channel-side optimization


class _ChannelWork:
    """Objective/gradient for the channel functional with separate measure
    (weights the joint) and reference (penalizes the posterior)."""

    def __init__(self, measure, reference, states, nu, c):
        self.measure = np.asarray(measure, dtype=float)
        self.reference = np.asarray(reference, dtype=float)
        self.stack = _stack(states)
        nu_arr = nu.entries if hasattr(nu, "entries") else np.asarray(nu)
        self.log_nu = la.logm_psd(nu_arr)
        self.tr_lognu = _traces_against(self.stack, self.log_nu)
        self.c = c

    def evaluate(self, kernels):
        """Values (S,) and gradients (S, x, u) for a stack of S kernels.

        Every (kernel, message) pair with mass above ``_ROW_MASS_TOL`` is one
        column p of the (x, p) joint, so all conditional outputs go through
        one einsum and one batched ``eigh``.
        """
        joint = self.measure[None, :, None] * kernels  # (s, x, u)
        p_u = joint.sum(axis=1)
        active = p_u > _ROW_MASS_TOL
        cols = joint.transpose(1, 0, 2)[:, active]  # (x, p), p runs over (s, u)
        mass = p_u[active]
        blocks = np.einsum("xp,xjk->pjk", cols, self.stack)
        sig = blocks / mass[:, None, None]
        w, v = np.linalg.eigh(sig)
        pos = w > SUPPORT_TOL
        log_w = np.where(pos, np.log(np.maximum(w, SUPPORT_TOL)), 0.0)
        log_sig = (v * log_w[:, None, :]) @ v.conj().transpose(0, 2, 1)
        d_out = np.sum(w * log_w, axis=1) - np.einsum("pjk,kj->p", sig, self.log_nu).real
        post = cols / mass
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(
                post > 0.0, post * np.log(np.maximum(post, 1e-300) / self.reference[:, None]), 0.0
            )
        d_in = terms.sum(axis=0)
        # pad with -0.0, an exact additive identity: with fewer than 8 messages
        # a row sums its active terms as np.sum sums them alone, so a kernel
        # gets the same value in a batch as by itself
        per_message = np.full(active.shape, -0.0)
        per_message[active] = mass * (self.c * d_out - d_in)
        values = per_message.sum(axis=1)
        scores = np.einsum("xjk,pkj->xp", self.stack, log_sig).real
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                cols > 0.0,
                np.log(np.maximum(cols, 1e-300) / (mass * self.reference[:, None])),
                0.0,
            )
        grads = np.zeros_like(kernels)
        grads.transpose(1, 0, 2)[:, active] = self.c * (scores - self.tr_lognu[:, None]) - ratio
        return values, grads


def _channel_starts(k: int, u_size: int, count: int):
    starts = [np.full((k, u_size), 1.0 / u_size)]
    near_id = np.full((k, u_size), 0.1 / u_size)
    for x in range(k):
        near_id[x, x % u_size] += 0.9
    starts.append(near_id / near_id.sum(axis=1, keepdims=True))
    rng = np.random.default_rng(_MULTISTART_SEED + 1)
    while len(starts) < count:
        alpha = 0.3 if len(starts) % 2 else 1.0
        starts.append(rng.dirichlet(np.full(u_size, alpha), size=k))
    return starts[:count]


def _ascend_channel(work: _ChannelWork, u_size: int, multistarts: int,
                    max_iter: int, grad_tol: float):
    """Multistart entropic mirror ascent; returns (best value, best kernel).

    The starts advance in lock-step, one batched evaluation per round.  In a
    round each live start either begins its next iteration at its current
    step or, inside its backtracking line search, retries at half its last
    trial step, so every start follows the trajectory it would follow alone.
    Ties go to the first start that reaches the best value.
    """
    if u_size < 1:
        raise DomainError("u_size must be at least 1")
    if multistarts < 1:
        raise DomainError(f"multistarts must be at least 1; got {multistarts!r}")
    if not 0.0 < work.c < math.inf:
        raise DomainError(f"c must be positive and finite; got {work.c!r}")
    kernels = np.stack(_channel_starts(work.measure.shape[0], u_size, multistarts))
    values, grads = work.evaluate(kernels)
    best_vals, best_kernels = values.copy(), kernels.copy()
    count = len(kernels)
    step, trial_step = np.ones(count), np.ones(count)
    stalled, iters = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    live, searching = np.ones(count, dtype=bool), np.zeros(count, dtype=bool)
    while True:
        # live starts outside a line search begin their next iteration
        begin = np.flatnonzero(live & ~searching)
        kern, grad = kernels[begin], grads[begin]
        centered = grad - np.sum(kern * grad, axis=2, keepdims=True)
        done = (iters[begin] >= max_iter) | (
            np.max(np.abs(kern * centered), axis=(1, 2)) < grad_tol
        )
        live[begin[done]] = False
        begin = begin[~done]
        trial_step[begin] = step[begin]
        searching[begin] = True
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        grad = grads[idx]
        shifted = trial_step[idx][:, None, None] * (grad - np.max(grad, axis=2, keepdims=True))
        trials = np.clip(kernels[idx] * np.exp(shifted), 1e-290, None)
        trials /= trials.sum(axis=2, keepdims=True)
        trial_vals, trial_grads = work.evaluate(trials)
        accept = (trial_vals >= values[idx] - 1e-15) | (trial_step[idx] < 1e-8)
        trial_step[idx[~accept]] /= 2.0
        acc, moved = idx[accept], trial_vals[accept]
        stalled[acc] = np.where(np.abs(moved - values[acc]) < 1e-13, stalled[acc] + 1, 0)
        kernels[acc], values[acc], grads[acc] = trials[accept], moved, trial_grads[accept]
        step[acc] = np.minimum(trial_step[acc] * 1.5, 4.0)
        better = acc[values[acc] > best_vals[acc]]
        best_vals[better], best_kernels[better] = values[better], kernels[better]
        iters[acc] += 1
        searching[acc] = False
        live[acc[stalled[acc] >= 3]] = False
    best = int(np.argmax(best_vals))
    return float(best_vals[best]), best_kernels[best]


def _posterior_package(measure, states, kernel, u_labels, in_labels):
    joint = np.asarray(measure)[:, None] * kernel
    p_u = joint.sum(axis=0)
    k, u_size = kernel.shape
    posterior = np.zeros((u_size, k))
    sigmas = []
    stack = _stack(states)
    for u in range(u_size):
        if p_u[u] > _ROW_MASS_TOL:
            posterior[u] = joint[:, u] / p_u[u]
            sigmas.append(DensityMatrix(np.einsum("x,xjk->jk", posterior[u], stack)))
        else:
            sigmas.append(None)
    chan = StochasticChannel(in_labels, u_labels, kernel)
    return ChannelWithPosterior(chan, p_u, posterior, tuple(sigmas))


def _validate_distribution(q, states):
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.shape[0] != len(states):
        raise ValidationError("distribution and states must have equal length")
    if np.any(q <= 0.0) or abs(float(q.sum()) - 1.0) > 1e-9:
        raise ValidationError("need a full-support distribution summing to 1")
    return q


def delta_star(q, states, nu, c: float, u_size: int, multistarts: int = 64,
               max_iter: int = 2000, grad_tol: float = 1e-8) -> DeltaStarResult:
    """Best value of c D(sigma_Y|U || nu | P_U) - D(P_X|U || q | P_U).

    The optimization runs over row-stochastic kernels with ``u_size``
    messages.  When nu equals the average output state the value also equals
    c I(U;Y) - I(U;X); both forms are evaluated and must agree within 1e-9.
    """
    q = _validate_distribution(q, states)
    states = tuple(states)
    work = _ChannelWork(q, q, states, nu, c)
    value, kernel = _ascend_channel(work, u_size, multistarts, max_iter, grad_tol)
    in_labels = [str(i) for i in range(len(states))]
    u_labels = [f"u{j}" for j in range(u_size)]
    best = _posterior_package(q, states, kernel, u_labels, in_labels)
    nu_arr = nu.entries if hasattr(nu, "entries") else np.asarray(nu)
    rho_avg = np.einsum("x,xjk->jk", q, work.stack)
    if np.max(np.abs(nu_arr - rho_avg)) <= 1e-12:
        i_uy, i_ux = chain_informations(q, work.stack, rho_avg, kernel)
        alt = c * i_uy - i_ux
        if abs(alt - value) > 1e-9:
            raise ValidationError(
                f"conditional-divergence form {value!r} and mutual-information "
                f"form {alt!r} disagree beyond 1e-9"
            )
    return DeltaStarResult(value, best)


def chain_informations(q, stack, rho_avg, kernel):
    """(I(U;Y), I(U;X)) for the classical-quantum chain U <- X -> Y, with X ~ q,
    U drawn through ``kernel`` and Y through the states ``stack`` averaging
    to ``rho_avg``."""
    joint = np.asarray(q)[:, None] * kernel
    p_u = joint.sum(axis=0)
    s_cond = 0.0
    i_ux = 0.0
    for u in range(kernel.shape[1]):
        if p_u[u] <= _ROW_MASS_TOL:
            continue
        sigma_u = np.einsum("x,xjk->jk", joint[:, u] / p_u[u], stack)
        s_cond += p_u[u] * la.entropy_psd(sigma_u)
        for x in range(joint.shape[0]):
            if joint[x, u] > 0.0:
                i_ux += joint[x, u] * math.log(joint[x, u] / (q[x] * p_u[u]))
    return la.entropy_psd(rho_avg) - s_cond, float(i_ux)


def phi(p_tilde, q, states, rho_y, c: float, u_size: int, multistarts: int = 64,
        max_iter: int = 2000, grad_tol: float = 1e-8) -> float:
    """Mixed-input channel functional: joints weighted by ``p_tilde`` while the
    posterior penalty references ``q``.  At p_tilde = q this coincides with
    ``delta_star`` evaluated at nu = rho_y.
    """
    p_tilde = _validate_distribution(p_tilde, states)
    q = np.asarray(q, dtype=float)
    if q.shape != p_tilde.shape or np.any(q <= 0.0):
        raise ValidationError("q must be a full-support distribution matching p_tilde")
    work = _ChannelWork(p_tilde, q, tuple(states), rho_y, c)
    value, _ = _ascend_channel(work, u_size, multistarts, max_iter, grad_tol)
    return value


def continuity_margin(p_tilde, q, states, rho_y, c: float, eps: float,
                      u_size: int, multistarts: int = 64) -> InequalityMargin:
    """Margin of phi(q) + (c+1) ln(eta) eps >= phi(p_tilde) under domination.

    Requires p_tilde <= (1+eps) q componentwise; eta is the inverse of the
    smallest reference probability.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    p_tilde = np.asarray(p_tilde, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p_tilde > (1.0 + eps) * q + 1e-12):
        raise PreconditionError("p_tilde is not dominated by (1+eps) q")
    eta = float(1.0 / np.min(q))
    phi_q = phi(q, q, states, rho_y, c, u_size, multistarts=multistarts)
    phi_tilde = phi(p_tilde, q, states, rho_y, c, u_size, multistarts=multistarts)
    lhs = phi_q + (c + 1.0) * math.log(eta) * eps
    return InequalityMargin(lhs, phi_tilde, f"continuity eps={eps!r} c={c!r}")


# ---------------------------------------------------------------------------
# typical sets and single-letterization


@dataclass(frozen=True)
class TypicalSet:
    """Sequences whose empirical measure is dominated by (1+eps_n) q."""

    n: int
    delta: float
    eps_n: float
    members: tuple
    mass: float
    mu_n: np.ndarray


def typical_set(q, n: int, delta: float) -> TypicalSet:
    """Enumerate the dominated-empirical-measure set and its product mass.

    Requires n > 3 eta ln(|X|/delta) so that eps_n < 1; the retained mass is
    guaranteed to be at least 1 - delta by a Chernoff bound and is asserted.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0) or abs(float(q.sum()) - 1.0) > 1e-9:
        raise ValidationError("need a full-support distribution summing to 1")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0,1); got {delta!r}")
    k = q.shape[0]
    eta = float(1.0 / np.min(q))
    threshold = 3.0 * eta * math.log(k / delta)
    if n <= threshold:
        raise PreconditionError(
            f"n={n} must exceed 3 eta ln(|X|/delta) = {threshold!r}"
        )
    if k**n > TYPICAL_ENUM_CAP:
        raise ResourceCapError(
            f"|X|^n = {k**n} exceeds the enumeration cap {TYPICAL_ENUM_CAP}"
        )
    eps_n = math.sqrt(3.0 * eta / n * math.log(k / delta))
    bound = (1.0 + eps_n) * q + 1e-12
    log_q = np.log(q)
    members, weights = [], []
    for seq in itertools.product(range(k), repeat=n):
        counts = np.bincount(seq, minlength=k)
        if np.all(counts / n <= bound):
            members.append(seq)
            weights.append(math.exp(float(np.dot(counts, log_q))))
    mass = float(np.sum(weights))
    if mass < 1.0 - delta - 1e-12:
        raise ValidationError(
            f"typical mass {mass!r} fell below 1 - delta = {1.0 - delta!r}"
        )
    return TypicalSet(n, delta, eps_n, tuple(members), mass, np.asarray(weights))


def single_letter_gap(q, states, nu, c: float, n: int, delta: float, u_size: int,
                      multistarts: int = 32, star_multistarts: int = 64) -> BoundReport:
    """Certificate that the n-letter trade-off is controlled by the single
    letter one:  delta(restricted product measure) <= n delta* + penalty,
    with penalty (c+1) ln(eta) sqrt(3 n eta ln(|X|/delta)).
    """
    q = np.asarray(q, dtype=float)
    states = tuple(states)
    k = q.shape[0]
    if k**n > MAX_DELTA_SUPPORT:
        raise ResourceCapError(
            f"|X|^n = {k**n} exceeds the exhaustive Delta cap {MAX_DELTA_SUPPORT}"
        )
    ts = typical_set(q, n, delta)
    eta = float(1.0 / np.min(q))
    if c <= 0.0:
        raise ValidationError(f"c must be positive; got {c!r}")
    nu_n = tensor_all([nu] * n).entries
    if float(np.min(np.linalg.eigvalsh(nu_n))) < 1e-10:
        raise ValidationError("nu must be full rank (min eigenvalue >= 1e-10)")
    dims = {s.dim for s in states}
    if len(dims) != 1 or dims.pop() ** n != nu_n.shape[0]:
        raise DimensionMismatchError("states and nu live on different dimensions")
    work = _ProductDeltaWork(ts.mu_n, states, ts.members, nu_n, c)
    lhs, _ = _solve_delta(work, multistarts)
    star = delta_star(q, states, nu, c, u_size, multistarts=star_multistarts).value
    penalty = (c + 1.0) * math.log(eta) * math.sqrt(3.0 * n * eta * math.log(k / delta))
    report = BoundReport(
        name="single-letter-gap",
        first_order=n * star,
        second_order=penalty,
        third_order=0.0,
        constants={
            "eta": eta,
            "c": c,
            "n": n,
            "delta": delta,
            "typical_mass": ts.mass,
            "lhs": lhs,
            "margin": n * star + penalty - lhs,
        },
    )
    return report
