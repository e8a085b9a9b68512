"""Information-bottleneck style functionals for classical-quantum channels.

Each evaluates one objective on the simplex, coded once in
``_DeltaWork.objective``: f(gamma) = c D(sum_x gamma(x) rho_x || nu) - D(gamma || mu).

* ``delta`` = max f over gamma << mu (a possibly unnormalized measure), by a
  fixed-point iteration: one start certified by a Gibbs upper bound at c < 1,
  else a multistart in lock-step (stacks of ``stack_step``, the bits of a
  sequential run); with a simplex-grid cross-check on small alphabets.
* ``delta_star`` = (cav f)(q) at mu = q: the best c D(sigma_{Y|U} || nu | P_U)
  - D(P_{X|U} || q | P_U) = sum_u P(u) f(P_{X|U=u}) over channels P_{U|X}
  (Nair 2013; Salek et al., IEEE TIT 2019).  A binary X takes the exact
  upper concave envelope, |X| >= 3 a multistart entropic mirror ascent;
  ``phi`` is the same envelope at p_tilde.

Also here: the variational form of ``delta``, the continuity bound, dominated
typical sets, and the single-letter gap certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _linalg as la
from .config import KERNEL_OVERLAP_TOL, STACK_BYTES, SUPPORT_TOL, TYPICAL_ENUM_CAP
from .entropy import relative_entropy
from .errors import (
    DimensionMismatchError,
    DomainError,
    PreconditionError,
    ResourceCapError,
    ValidationError,
)
from .hyptest import stack_step
from .operators import HermitianOperator, _as_array, stack_entries, tensor_all
from .reports import BoundReport
from .semigroup import InequalityMargin

#: base seed for the deterministic multistart generators
_MULTISTART_SEED = 0x5EED

#: rows of P_U|X with this little mass are excluded from conditional terms
_ROW_MASS_TOL = 1e-14

#: alphabet size for exhaustive Delta computations at tensor level
MAX_DELTA_SUPPORT = 256


def _check_delta_input(mu, states, nu, c: float, n: int = 1):
    """Reject an input of Delta(mu, nu, c) over the n-letter products of
    ``states``: mu needs |X|^n nonnegative entries of total mass at most 1,
    c must be positive and finite, and nu full rank on the n-letter space.
    Returns nu's eigh, whose spectrum the rank check reads."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.shape[0] != len(states) ** n:
        raise ValidationError(f"mu has shape {mu.shape}; expected |X|^n = {len(states) ** n} entries")
    if np.any(mu < 0.0):
        raise ValidationError("mu must be entrywise nonnegative")
    if float(mu.sum()) > 1.0 + 1e-9:
        raise ValidationError(f"mu has total mass {float(mu.sum())!r} > 1")
    if not (math.isfinite(c) and c > 0.0):
        raise ValidationError(f"c must be positive and finite; got {c!r}")
    nu_arr = _as_array(nu)
    eig = np.linalg.eigh(nu_arr)
    if float(eig[0][0]) < 1e-10:
        raise ValidationError("nu must be full rank (min eigenvalue >= 1e-10)")
    dims = {s.dim for s in states}
    if len(dims) != 1 or dims.pop() ** n != nu_arr.shape[0]:
        raise DimensionMismatchError("states and nu live on different dimensions")
    return eig


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
        _check_delta_input(mu, self.states, self.nu, self.c)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.mu > 0.0)


class DeltaResult(NamedTuple):
    value: float
    gamma: np.ndarray


class DeltaStarResult(NamedTuple):
    value: float
    #: the maximizing channel P_U|X, one row-stochastic row per input symbol
    kernel: np.ndarray
    #: its output marginal P_U = sum_x q(x) P_U|X(.|x)
    p_u: np.ndarray
    #: (I(U;Y), I(U;X)) of the maximizing channel against the average output
    informations: tuple


class _DeltaWork:
    """Precomputed pieces for Delta(mu, nu, c) over n-letter product states,
    on the support of mu.

    ``mu`` has one entry per sequence s in X^n (lexicographic order), whose
    state is rho_{s_1} (x) ... (x) rho_{s_n} over the single-letter
    ``states``; n = 1 is a plain instance.  ``nu`` is the single-letter
    reference; the work forms nu^n = ``nu_n`` itself, so the states and the
    reference are i.i.d. by construction.  The products over the last m
    sites are held as one dense block, m as large as fits in ``STACK_BYTES``
    (at least 1); mixtures and traces meet that block in one step and
    contract the n - m leading sites one at a time (Van Loan, "The ubiquitous
    Kronecker product", 2000), so no n-letter stack is built.
    """

    def __init__(self, mu, states, nu, c: float, n: int = 1):
        self.nu_n = tensor_all([nu] * n) if n > 1 else nu
        w, v = _check_delta_input(mu, states, self.nu_n, c, n)
        mu = np.asarray(mu, dtype=float)
        self.support = np.flatnonzero(mu > 0.0)
        if self.support.size == 0:
            raise DomainError("mu has empty support")
        self.c = c
        self.mu_s = mu[self.support]
        self.log_mu = np.log(self.mu_s)
        self.sites = stack_entries(states)
        k, d = self.sites.shape[:2]
        # a sequence's type class is its sorted symbols, read as one base-k
        # number, first symbol first; ``types`` labels the support's classes
        # when mu is constant on every class (at n = 1 each class is a symbol)
        self.types = None
        if n > 1:
            seqs = np.sort(np.arange(k**n)[:, None] // k ** np.arange(n) % k, axis=1)
            code = seqs @ k ** np.arange(n)[::-1]
            _, first, cls = np.unique(code, return_index=True, return_inverse=True)
            if np.all(mu == mu[first][cls]):
                self.types = cls[self.support]
        self.n, self.m = n, 1
        while self.m < n and 16 * (k * d * d) ** (self.m + 1) <= STACK_BYTES:
            self.m += 1
        block = self.sites
        for _ in range(self.m - 1):
            dim = block.shape[-1] * d
            block = la.kron_pairs(block[:, None], self.sites[None]).reshape(-1, dim, dim)
        self.block = block
        self.log_nu = la.from_spectrum(np.log(w), v)  # the bits of la.logm_psd
        self.tr_lognu = self.traces(self.log_nu)

    def mix(self, gamma):
        """sum_x gamma(x) rho_x over the support, for one gamma or for each
        row of a stack (G, support); each row gets the bits of a call on it."""
        k, d = self.sites.shape[:2]
        lead = gamma.shape[:-1]
        full = np.zeros(lead + (k**self.n,))
        full[..., self.support] = gamma
        rows, dim = self.block.shape[0], self.block.shape[-1]
        # acc[..., r, IJ]: r indexes the leading sites still to contract, (I, J)
        # the trailing sites already contracted.  Stacked matmuls: numpy runs
        # one GEMM per slice, whose shape does not depend on the stack's size.
        # The real weights meet the block's real and imaginary parts at once
        flat = self.block.view(float).reshape(rows, -1)
        acc = (full.reshape(lead + (-1, rows)) @ flat).view(complex)
        for _ in range(self.n - self.m):
            acc = self.sites.reshape(k, -1).T @ acc.reshape(lead + (-1, k, dim * dim))
            acc = acc.reshape(lead + (-1, d, d, dim, dim)).swapaxes(-3, -2)
            dim *= d
        return acc.reshape(lead + (dim, dim))

    def traces(self, mat):
        """Re tr[rho_x mat] for each support symbol, for one matrix (D, D) or
        as the C-contiguous rows (R, support) of a stack (R, D, D); each row
        gets the bits of a call on its matrix."""
        k, d = self.sites.shape[:2]
        acc = np.asarray(mat)
        lead, dim = acc.shape[:-2], acc.shape[-1]
        # acc[..., r, x, IJ]: r, x index the leading sites already contracted,
        # (I, J) the trailing sites still to contract; rho^T = conj(rho)
        for i in range(self.n - self.m):
            dim //= d
            acc = np.moveaxis(acc.reshape(lead + (k**i, d, dim, d, dim)), (-4, -2), (-2, -1))
            acc = acc.reshape(lead + (k**i, dim * dim, d * d)) @ self.sites.conj().reshape(k, -1).T
            acc = acc.swapaxes(-1, -2)
        flat = self.block.reshape(len(self.block), -1).conj()
        out = acc.reshape(lead + (k ** (self.n - self.m), dim * dim)) @ flat.T
        return out.real.reshape(lead + (k**self.n,)).take(self.support, axis=-1)

    def objective(self, gamma, sigma, w):
        """f(gamma) = c D(sigma || nu) - D(gamma || mu) at gamma or each row of
        gammas, from the mixtures sigma and their eigenvalues w."""
        pos, g_pos = w > 0.0, gamma > 0.0  # every positive eigenvalue counts
        tr_logsig = la.row_sums(w * np.log(np.where(pos, w, 1.0)), pos)
        d_out = tr_logsig - la.inner_real(sigma, self.log_nu)
        ratio = np.where(g_pos, gamma / self.mu_s, 1.0)
        d_in = la.row_sums(gamma * np.log(ratio), g_pos)
        return la.scalar_or_array(self.c * d_out - d_in)

    def objective_and_eig(self, gamma):
        """The objective at gamma or each row of gammas, with the mixtures' eigh."""
        sigma = self.mix(gamma)
        eig = np.linalg.eigh(sigma)
        return self.objective(gamma, sigma, eig[0]), eig

    def scores(self, eig):
        """c (tr[rho_x ln sigma] - tr[rho_x ln nu]) of each row of a stacked
        eig, ln sigma cut at ``SUPPORT_TOL``, the traces in one stacked call
        that keeps each row's bits.  Up to a constant, the objective's
        gradient is these scores - ln(gamma / mu)."""
        w, v = eig
        log_w = np.where(w > SUPPORT_TOL, np.log(np.maximum(w, SUPPORT_TOL)), 0.0)
        return self.c * (self.traces(la.from_spectrum(log_w, v)) - self.tr_lognu)

    def fixed_point_logits(self, eig):
        """ln mu(x) + ``scores`` of each row of a stacked eig (-inf on a
        kernel overlap)."""
        w, v = eig
        pos = w > SUPPORT_TOL
        scores = self.scores(eig)
        for r in np.flatnonzero(~pos.all(axis=-1)):
            ker = v[r][:, ~pos[r]]
            overlap = self.traces(ker @ ker.conj().T)
            scores[r] = np.where(overlap > KERNEL_OVERLAP_TOL, -np.inf, scores[r])
        return self.log_mu + scores

    def fixed_point_step(self, eig):
        """The next gamma of each row of a stacked eig, or None where weights vanish."""
        logits = self.fixed_point_logits(eig)
        finite = np.isfinite(logits)
        top = np.max(logits, axis=-1, keepdims=True, where=finite, initial=-np.inf)
        weights = np.exp(np.subtract(logits, top, out=np.full_like(logits, -np.inf), where=finite))
        return [row / total if total > 0.0 else None
                for row, total in zip(weights, weights.sum(axis=-1))]

    def gibbs_bound(self, gamma, logits) -> float:
        """U(gamma) = (1-c) ln sum_x e^(b_x / (1-c)), b_x = logit_x - c ln gamma(x),
        >= Delta for c < 1 and = the objective at a fixed point; inf if a b_x
        is not finite.  c S(X|Y) + (1-c) H + linear lies below its tangent +
        (1-c) H (S(X|Y) is concave, 1-homogeneous: Lieb & Ruskai 1973), which
        peaks at a Gibbs state; the logits' SUPPORT_TOL cut only raises U."""
        with np.errstate(divide="ignore", invalid="ignore"):
            b = logits - self.c * np.log(gamma)
        return (1.0 - self.c) * _logsumexp(b / (1.0 - self.c)) if np.all(np.isfinite(b)) else math.inf


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


def delta(inst: DeltaInstance, multistarts: int = 32, cross_check: bool = True) -> DeltaResult:
    """Best value of c D(sigma_gamma || nu) - D(gamma || mu) over the simplex.

    Runs the fixed-point iteration (the stationarity condition updates
    gamma(x) proportionally to mu(x) e^(c tr[rho_x ln T]) with T =
    e^(ln sigma_gamma - ln nu)) and keeps the best iterate: at c < 1 the
    uniform start until a Gibbs upper bound U certifies it within 1e-12
    max(1, |U|), else ``multistarts`` starts in lock-step, with the bits of
    one start at a time.  With ``cross_check``, a support of at most 3 is
    cross-checked against the exhaustive 1/64 simplex grid and must agree
    within 1e-3; the better of the two feasible values wins.
    """
    work = _DeltaWork(inst.mu, inst.states, inst.nu, inst.c)
    best_val, best_gamma = _solve_delta(work, multistarts, cross_check)
    full = np.zeros(inst.mu.shape[0])
    full[work.support] = best_gamma
    return DeltaResult(best_val, full)


def _solve_delta(work: _DeltaWork, multistarts: int = 32, cross_check: bool = True):
    """(best value, best gamma on the support) for ``delta``: at c < 1 the
    uniform start alone if its Gibbs bound certifies it (``_certified_start``),
    else the multistart of ``_lock_step``.  With ``cross_check``, a support of
    at most 3 symbols is also searched on the 1/64 simplex grid."""
    best_val, best_gamma = (work.c < 1.0 and _certified_start(work)) or _lock_step(work, multistarts)
    if cross_check and work.support.size <= 3:
        grid_val, grid_gamma = _delta_grid(work, work.support.size)
        if abs(grid_val - best_val) > 1e-3 and grid_val > best_val:
            raise ValidationError(f"fixed-point value {best_val!r} disagrees with the "
                                  f"1/64 grid value {grid_val!r} beyond 1e-3")
        if grid_val > best_val:
            best_val, best_gamma = grid_val, grid_gamma
    return best_val, best_gamma


def _certified_start(work: _DeltaWork):
    """(value, gamma) of the uniform start, which reaches the maximum at c < 1
    (the objective is concave), stopped once its Gibbs bound U is within
    1e-12 max(1, |U|) of its value; None if U is infinite, or once the gap,
    shrinking at its last observed ratio, would not close by step 500."""
    gamma = np.full(work.support.size, 1.0 / work.support.size)
    best, prev = (-math.inf, None), math.inf
    for step in range(500):
        vals, eig = work.objective_and_eig(gamma[None])
        best = max(best, (float(vals[0]), gamma), key=lambda b: b[0])
        logits = work.fixed_point_logits(eig)[0]
        bound = work.gibbs_bound(gamma, logits)
        if not math.isfinite(bound):
            return None
        gap, tol = bound - float(vals[0]), 1e-12 * max(1.0, abs(bound))
        if gap <= tol:
            return best
        if gap * min(gap / prev, 1.0) ** (499 - step) > tol:  # also at the cap, step 499
            return None
        prev = gap
        weights = np.exp(logits - np.max(logits))  # every logit is finite
        gamma = weights / weights.sum()


def _lock_step(work: _DeltaWork, multistarts: int):
    """(best value, best gamma) of the multistart fixed point: at most 500
    steps per start, stopping when the value moves < 1e-10.  The starts
    advance in lock-step, in stacks of ``stack_step`` rows with one stack's
    eigenvectors alive at a time; each keeps the bits and stops of a run on
    its own, and the first start to reach the best value wins.

    When mu is constant on every type class of X^n (``work.types``), the
    problem is invariant under permutations of the sites: the states and
    nu^n are i.i.d., which ``_DeltaWork`` guarantees.  Two vertex starts in
    one type class then follow permuted trajectories to equal values, so
    only the first vertex of each class runs (Csiszar & Korner, ch. 2).  The
    Dirichlet starts are never dropped: no permutation maps one onto another.
    """
    k = work.support.size
    starts = _delta_starts(k, multistarts)
    if work.types is not None:
        # vertex i of the support is start i + 1
        vertices = min(k, max(0, multistarts - 1))
        keep = set(np.unique(work.types[:vertices], return_index=True)[1] + 1)
        starts = [s for i, s in enumerate(starts) if not 1 <= i <= vertices or i in keep]
    step = stack_step(work.sites.shape[-1] ** work.n)
    count = len(starts)
    gammas, live = list(starts), list(range(count))
    prev = [-math.inf] * count
    best = [(-math.inf, None)] * count
    for _ in range(500):
        moved = []
        for lo in range(0, len(live), step):
            chunk = live[lo:lo + step]
            vals, (w, v) = work.objective_and_eig(np.stack([gammas[i] for i in chunk]))
            cont = []
            for row, (i, val) in enumerate(zip(chunk, vals.tolist())):
                if val > best[i][0]:
                    best[i] = (val, gammas[i])
                if abs(val - prev[i]) < 1e-10:
                    continue
                prev[i] = val
                cont.append(row)
            for row, nxt in zip(cont, work.fixed_point_step((w[cont], v[cont]))):
                if nxt is not None:
                    gammas[chunk[row]] = nxt
                    moved.append(chunk[row])
        live = moved
        if not live:
            break
    return max(best, key=lambda b: b[0])


def _delta_grid(work: _DeltaWork, k: int):
    """Best objective value and gamma (the first of equal ones) over the 1/64
    grid of the k-simplex, its mixtures diagonalized in stacks of
    ``stack_step``."""
    grid = np.array(list(_compositions(64, k)), dtype=float) / 64
    step = stack_step(work.sites.shape[-1] ** work.n)
    vals = np.concatenate([work.objective_and_eig(grid[lo:lo + step])[0]
                           for lo in range(0, len(grid), step)])
    best = int(np.argmax(vals))
    return float(vals[best]), grid[best]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def delta_grid_value(inst: DeltaInstance) -> DeltaResult:
    """Best value of the ``delta`` objective on the exhaustive 1/64 simplex grid."""
    work = _DeltaWork(inst.mu, inst.states, inst.nu, inst.c)
    val, gamma = _delta_grid(work, work.support.size)
    full = np.zeros(inst.mu.shape[0])
    full[work.support] = gamma
    return DeltaResult(val, full)


def delta_variational_value(inst: DeltaInstance, t_op) -> float:
    """ln sum_x mu(x) e^(c tr[rho_x ln T]) - c ln tr[e^(ln nu + ln T)].

    A lower form of ``delta``: never exceeds it, with equality at
    T = e^(ln sigma_gamma* - ln nu) for the maximizing gamma*.
    """
    t_arr = _as_array(t_op)
    if float(np.min(np.linalg.eigvalsh(t_arr))) <= SUPPORT_TOL:
        raise DomainError("T must be positive definite")
    work = _DeltaWork(inst.mu, inst.states, inst.nu, inst.c)
    log_t = la.logm_psd(t_arr)
    scores = work.c * work.traces(log_t)
    term1 = _logsumexp(work.log_mu + scores)
    mix = work.log_nu + log_t
    term2 = work.c * math.log(la.trace_real(la.expm_herm(mix)))
    return term1 - term2


def _logsumexp(a: np.ndarray) -> float:
    """ln sum e^a, with the bits of ``scipy.special.logsumexp`` (scipy 1.17)."""
    top = np.max(a)
    at_top = a == top
    ties = np.count_nonzero(at_top)
    rest = np.sum(np.exp(np.where(at_top, -np.inf, a) - top)) / ties
    return float(np.log1p(rest) + np.log(ties) + top)


# ---------------------------------------------------------------------------
# channel-side optimization


class _ChannelWork:
    """The channel functional sum_u P(u) f(P_X|U=u): the joint weighted by
    ``measure``, f the Delta objective of ``delta`` (a ``_DeltaWork``), whose
    mu is the reference that penalizes the posteriors."""

    def __init__(self, measure, reference, states, nu, c):
        self.measure = np.asarray(measure, dtype=float)
        self.delta = _DeltaWork(reference, states, nu, c)

    def evaluate(self, kernels):
        """Values (S,) and gradients (S, x, u) for a stack of S kernels.

        Every (kernel, message) pair with mass above ``_ROW_MASS_TOL`` is one
        posterior row p of the (p, x) stack, so all of them go through one
        stacked objective and one batched ``eigh``.
        """
        joint = self.measure[None, :, None] * kernels  # (s, x, u)
        p_u = joint.sum(axis=1)
        active = p_u > _ROW_MASS_TOL
        mass = p_u[active]
        post = joint.transpose(0, 2, 1)[active] / mass[:, None]  # (p, x), p runs over (s, u)
        vals, eig = self.delta.objective_and_eig(post)
        # pad with -0.0, an exact additive identity: with fewer than 8 messages
        # a row sums its active terms as np.sum sums them alone, so a kernel
        # gets the same value in a batch as by itself
        per_message = np.full(active.shape, -0.0)
        per_message[active] = mass * vals
        ratio = np.where(post > 0.0, post / self.delta.mu_s, 1.0)
        grads = np.zeros_like(kernels)
        grads.transpose(0, 2, 1)[active] = self.delta.scores(eig) - np.log(ratio)
        return per_message.sum(axis=1), grads


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


def _ascend_channel(work: _ChannelWork, u_size: int, multistarts: int, max_iter: int):
    """Multistart entropic mirror ascent; returns (best value, best kernel).

    A start stops at ``max_iter`` iterations or a stationarity residual below 1e-8.
    The starts advance in lock-step, one batched evaluation per round.  In a
    round each live start either begins its next iteration at its current
    step or, inside its backtracking line search, retries at half its last
    trial step, so every start follows the trajectory it would follow alone.
    Ties go to the first start that reaches the best value.
    """
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
            np.max(np.abs(kern * centered), axis=(1, 2)) < 1e-8
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


def _binary_envelope(work: _ChannelWork, u_size: int):
    """(value, kernel) of the best channel for a binary input: the upper concave
    envelope of f(t) = c D(t rho_0 + (1-t) rho_1 || nu) - D((t, 1-t) || reference)
    at t = p = measure(0), t being P(X=0 | U=u) (Witsenhausen & Wyner 1975;
    Nair 2013).  A chord through t1 <= p <= t2 reaches it: the best over a
    129-point grid, then zoomed with 17 points around each end, the spacing
    shrinking 8x per level to below 1e-13.  The value is the objective at
    that channel or at one message, the better: it is achievable."""
    p, delta = float(work.measure[0]), work.delta
    def best_chord(t):
        g = np.stack([t, 1.0 - t], axis=1)  # the posteriors P(X | U=u)
        sigma = delta.mix(g)
        # every positive eigenvalue counts: the zoom would exploit a SUPPORT_TOL cut
        f = delta.objective(g, sigma, np.linalg.eigvalsh(sigma))
        # tl = p gives f(p) itself, one message; th > p keeps th - tl > 0
        tl, fl, th, fh = t[t <= p, None], f[t <= p, None], t[t > p], f[t > p]
        chords = (fl * (th - p) + fh * (p - tl)) / (th - tl)
        i, j = np.unravel_index(np.argmax(chords), chords.shape)
        return tl[i, 0], th[j]

    t1, t2 = best_chord(np.append(np.linspace(0.0, 1.0, 129), p))
    for h in 8.0 ** -np.arange(12) / 1024:  # spacings 1/1024 down to 1.4e-13
        zoom = h * np.arange(-8, 9)
        t1, t2 = best_chord(np.concatenate([np.clip(t1 + zoom, 0.0, p), np.clip(t2 + zoom, p, 1.0), [p]]))
    lam = (t2 - p) / (t2 - t1)  # P(U = 0)
    joint = np.array([[t1, t2], [1.0 - t1, 1.0 - t2]]) * [lam, 1.0 - lam]
    # one message first: it wins the ties of a chord near p where f is concave
    kernels = np.zeros((2, 2, u_size))
    kernels[0, :, 0], kernels[1, :, :2] = 1.0, joint / joint.sum(axis=1, keepdims=True)
    values = work.evaluate(kernels)[0]
    return float(values.max()), kernels[np.argmax(values)]


def _best_channel(measure, reference, states, nu, c, u_size: int, multistarts: int,
                  max_iter: int):
    """(value, kernel) of the ``_ChannelWork`` functional: the exact envelope for
    a binary input and two or more messages, else the ascent.  Both reject a c
    at which 4c (the ascent's largest step) overflows: one domain of c for
    every |X|.  The rest of the input then meets ``_check_delta_input``."""
    if u_size < 1:
        raise DomainError("u_size must be at least 1")
    if multistarts < 1:
        raise DomainError(f"multistarts must be at least 1; got {multistarts!r}")
    if not 0.0 < c < math.inf:
        raise DomainError(f"c must be positive and finite; got {c!r}")
    work = _ChannelWork(measure, reference, states, nu, c)
    with np.errstate(over="raise"):
        try:
            np.multiply(4.0, c)  # raises where 4c overflows
            if work.measure.shape[0] == 2 and u_size >= 2:
                return _binary_envelope(work, u_size)
            return _ascend_channel(work, u_size, multistarts, max_iter)
        except FloatingPointError:
            raise DomainError(f"c = {c!r} overflows the mirror-ascent step") from None


def _validate_distribution(q, states):
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.shape[0] != len(states):
        raise ValidationError("distribution and states must have equal length")
    if np.any(q <= 0.0) or abs(float(q.sum()) - 1.0) > 1e-9:
        raise ValidationError("need a full-support distribution summing to 1")
    return q


def delta_star(q, states, nu, c: float, u_size: int, multistarts: int = 64,
               max_iter: int = 2000) -> DeltaStarResult:
    """Best value of c D(sigma_Y|U || nu | P_U) - D(P_X|U || q | P_U).

    The optimization runs over row-stochastic kernels with ``u_size``
    messages.  The result carries the maximizing channel, its output
    marginal P_U and its (I(U;Y), I(U;X)) against the average output state;
    when nu equals that state the value also equals c I(U;Y) - I(U;X), and
    both forms must agree within max(1e-9, 1e-13 |c I(U;Y)|), which is 1e-9
    up to |c I(U;Y)| = 1e4.  A c that overflows the mirror step is rejected.

    The value is the objective at a real channel, so any error puts it below
    the supremum.  For |X| = 2 and ``u_size`` >= 2 that channel is the concave
    envelope's (within about 1e-13 of the optimum); otherwise the best of
    ``multistarts`` ascents of at most ``max_iter`` steps, which may fall short.
    """
    q = _validate_distribution(q, states)
    value, kernel = _best_channel(q, q, states, nu, c, u_size, multistarts, max_iter)
    stack = stack_entries(states)
    rho_avg = np.einsum("x,xjk->jk", q, stack)
    i_uy, i_ux = chain_informations(q, stack, rho_avg, kernel)
    if np.max(np.abs(_as_array(nu) - rho_avg)) <= 1e-12:
        alt, tol = float(c * i_uy - i_ux), max(1e-9, 1e-13 * abs(float(c * i_uy)))
        if abs(alt - value) > tol:
            raise ValidationError(
                f"conditional-divergence form {value!r} and mutual-information "
                f"form {alt!r} disagree beyond {tol!r}"
            )
    return DeltaStarResult(value, kernel, (q[:, None] * kernel).sum(axis=0), (i_uy, i_ux))


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


def phi(p_tilde, q, states, rho_y, c: float, u_size: int, multistarts: int = 64) -> float:
    """Mixed-input channel functional: joints weighted by ``p_tilde`` while the
    posterior penalty references ``q``.  At p_tilde = q this coincides with
    ``delta_star`` evaluated at nu = rho_y, and is solved the same way.
    """
    p_tilde = _validate_distribution(p_tilde, states)
    q = np.asarray(q, dtype=float)
    if q.shape != p_tilde.shape or np.any(q <= 0.0):
        raise ValidationError("q must be a full-support distribution matching p_tilde")
    return _best_channel(p_tilde, q, tuple(states), rho_y, c, u_size, multistarts, 2000)[0]


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
    return InequalityMargin(lhs, phi_tilde)


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

    The typical-set measure is constant on type classes, so the Delta
    multistart runs one vertex start per class (see ``_solve_delta``).
    ``lhs``, the multistart delta(mu_n), is a lower estimate; ``certified_lhs``
    = ln sum_x^n mu_n(x^n) e^(c sum_i D(rho_x_i || nu)) bounds it from above
    (D is convex in its first argument; the Gibbs variational principle).
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
    mu_n = np.zeros(k**n)
    mu_n[np.ravel_multi_index(np.asarray(ts.members).T, (k,) * n)] = ts.mu_n
    lhs, _ = _solve_delta(_DeltaWork(mu_n, states, nu, c, n), multistarts)
    # D(rho_x^n || nu^n) = sum_i D(rho_x_i || nu): no n-letter matrix
    d_x = relative_entropy(stack_entries(states), np.stack([_as_array(nu)] * k))
    certified = _logsumexp(np.log(ts.mu_n) + c * d_x[np.asarray(ts.members)].sum(axis=1))
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
            "certified_lhs": certified,
            "margin": n * star + penalty - lhs,
        },
    )
    return report
