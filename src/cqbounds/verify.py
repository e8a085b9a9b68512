"""Seeded verification suites: randomized instance sweeps for every
inequality and oracle cross-check the package asserts.

Each suite maps a master seed and an instance budget to a deterministic list
of rows (instance_id, seed, parameters..., lhs, rhs, margin) plus a summary.
Every instance and every matrix draws from its own stream.  The stacked
suites (``alt``, ``reverse-holder``, ``reverse-alt``, the entropy suites,
``np-oracle`` and ``expurgation``) seed their instance streams in one
vectorized pass and their matrix streams in another (``expurgation``: two),
with the bits of ``np.random.default_rng`` (``operators._generators``), then
evaluate their instances together as (N, d, d) stacks grouped by dimension
(``expurgation`` by message count); each row equals the one a
single-instance call gives.  The Neyman-Pearson pencils and the oracle's
weight grid run in steps of at most ``config.STACK_BYTES`` (64 KiB) per
stacked array.  The fixed-instance suites (``np-trend``, ``single-letter``,
``soundness``, ``sandwich``) run the first ``instances`` entries of their
fixed instance lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from . import bounds as bd
from . import bottleneck as bn
from . import entropy as en
from . import hyptest as ht
from . import semigroup as sg
from .config import STACK_BYTES
from .errors import ValidationError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    _generators,
    apply_kraus,
    density_stack,
    random_channel_kraus_stack,
    random_density,
    random_density_stack,
    random_psd,
    random_psd_stack,
    tensor_all,
)

#: master-seed offsets so suites draw independent streams
_SUITE_KEYS = {
    "alt": 1,
    "reverse-holder": 2,
    "reverse-alt": 3,
    "rhc": 4,
    "entropy-dp": 5,
    "entropy-var": 6,
    "renyi-limit": 7,
    "np-oracle": 8,
    "np-trend": 9,
    "key-inequality": 10,
    "expurgation": 11,
    "bottleneck": 12,
    "single-letter": 13,
    "soundness": 14,
    "sandwich": 15,
    "image-size": 16,
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    columns: tuple
    rows: tuple
    summary: dict
    passed: bool


def _rng_for(master_seed: int, suite: str, instance: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(_SUITE_KEYS[suite], instance))
    )


def _child_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _suite_rngs(seed: int, suite: str, instances: int) -> list:
    """``_rng_for(seed, suite, i)`` for every instance, seeded in one batch."""
    return _generators([seed] * instances, [(_SUITE_KEYS[suite], i) for i in range(instances)])


def _child_streams(rngs, count: int) -> list:
    """The streams of the next ``count`` child seeds of each instance stream
    (one draw gives the ``_child_seed`` values in turn), seeded in one batch,
    as ``count`` lists over the instances."""
    seeds = [s for rng in rngs for s in rng.integers(0, 2**31 - 1, size=count).tolist()]
    streams = _generators(seeds)
    return [streams[j::count] for j in range(count)]


def _finish(name, columns, rows, margins, tolerance):
    # min() skips a NaN that is not first: any NaN margin is the worst
    worst = math.nan if any(map(math.isnan, margins)) else min(margins, default=math.inf)
    passed = worst >= -tolerance
    summary = {
        "instances": len(rows),
        "min_margin": worst,
        "tolerance": tolerance,
        "pass": passed,
    }
    return SuiteResult(name, tuple(columns), tuple(tuple(r) for r in rows), summary, passed)


# ---------------------------------------------------------------------------
# trace-inequality suites


def _groups(keys):
    """Instance indices grouped by key, groups in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups.items()


def run_alt(seed: int, instances: int) -> SuiteResult:
    rngs = _suite_rngs(seed, "alt", instances)
    draws = [(int(rng.integers(2, 5)), float(rng.uniform(0.0, 1.0))) for rng in rngs]
    a_s, b_s = _child_streams(rngs, 2)
    rows = [None] * instances
    for dim, idx in _groups(d[0] for d in draws):
        r = [draws[i][1] for i in idx]
        a = random_psd_stack(dim, [a_s[i] for i in idx])
        b = random_psd_stack(dim, [b_s[i] for i in idx])
        m = sg.check_alt(a, b, r)
        for i, r_i, lhs, rhs, margin in zip(idx, r, m.lhs.tolist(), m.rhs.tolist(),
                                            m.margin.tolist()):
            rows[i] = [i, seed, dim, r_i, lhs, rhs, margin]
    cols = ["instance_id", "seed", "dim", "r", "lhs", "rhs", "margin"]
    return _finish("alt", cols, rows, [r[-1] for r in rows], 1e-10)


def run_reverse_holder(seed: int, instances: int) -> SuiteResult:
    p_choices = (0.5, -1.0, 0.25, -0.5, 0.75, -2.0)
    rngs = _suite_rngs(seed, "reverse-holder", instances)
    keys = [(int(rng.integers(2, 5)), float(p_choices[int(rng.integers(0, len(p_choices)))]))
            for rng in rngs]
    a_s, b_s, sigma_s = _child_streams(rngs, 3)
    rows = [None] * instances
    for (dim, p), idx in _groups(keys):
        a = random_psd_stack(dim, [a_s[i] for i in idx], min_eig_floor=0.05 if p < 0 else 0.0)
        b = random_psd_stack(dim, [b_s[i] for i in idx], min_eig_floor=0.05)
        sigma = random_density_stack(dim, [sigma_s[i] for i in idx], min_eig_floor=0.05)
        m = sg.check_reverse_holder(a, b, p, sigma)
        for i, lhs, rhs, margin in zip(idx, m.lhs.tolist(), m.rhs.tolist(), m.margin.tolist()):
            rows[i] = [i, seed, dim, p, lhs, rhs, margin]
    cols = ["instance_id", "seed", "dim", "p", "lhs", "rhs", "margin"]
    return _finish("reverse-holder", cols, rows, [r[-1] for r in rows], 1e-10)


def run_reverse_alt(seed: int, instances: int) -> SuiteResult:
    rngs = _suite_rngs(seed, "reverse-alt", instances)
    draws = []
    for rng in rngs:
        dim = int(rng.integers(2, 5))
        r = float(rng.uniform(0.05, 1.0))
        slack = 1.0 / (2.0 * r) - 0.5
        if slack < 1e-12:
            a_exp = b_exp = math.inf
        else:
            u = float(rng.uniform(0.2, 0.8)) * slack
            a_exp, b_exp = 1.0 / u, 1.0 / (slack - u)
        draws.append((dim, (r, a_exp, b_exp)))
    a_s, b_s = _child_streams(rngs, 2)
    rows = [None] * instances
    for dim, idx in _groups(d[0] for d in draws):
        params = [draws[i][1] for i in idx]
        a = random_psd_stack(dim, [a_s[i] for i in idx])
        b = random_psd_stack(dim, [b_s[i] for i in idx])
        m = sg.check_reverse_alt(a, b, *zip(*params))
        for i, par, lhs, rhs, margin in zip(idx, params, m.lhs.tolist(), m.rhs.tolist(),
                                            m.margin.tolist()):
            rows[i] = [i, seed, dim, *par, lhs, rhs, margin]
    cols = ["instance_id", "seed", "dim", "r", "a_exp", "b_exp", "lhs", "rhs", "margin"]
    return _finish("reverse-alt", cols, rows, [r[-1] for r in rows], 1e-10)


def run_rhc(seed: int, instances: int) -> SuiteResult:
    pq_choices = ((-1.0, 0.5), (0.3, 0.7), (-0.5, -0.1), (0.1, 0.9), (-2.0, 0.25))

    def one(i):
        rng = _rng_for(seed, "rhc", i)
        sites = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5)) if sites == 1 else int(rng.integers(2, 4 if sites == 2 else 3))
        p, q = pq_choices[int(rng.integers(0, len(pq_choices)))]
        states = [random_density(dim, _child_seed(rng), min_eig_floor=0.05) for _ in range(sites)]
        g = random_psd(dim**sites, _child_seed(rng), min_eig_floor=0.1)
        g = HermitianOperator(g.entries, (dim,) * sites)
        t0 = sg.rhc_time_threshold(p, q)
        out = []
        for dt in (0.0, 0.5):
            m = sg.check_rhc(g, states, p, q, t0 + dt)
            out.append([i, seed, sites, dim, p, q, t0 + dt, m.lhs, m.rhs, m.margin])
        return out

    nested = [one(i) for i in range(instances)]
    rows = [row for pair in nested for row in pair]
    cols = ["instance_id", "seed", "sites", "site_dim", "p", "q", "t", "lhs", "rhs", "margin"]
    return _finish("rhc", cols, rows, [r[-1] for r in rows], 1e-9)


# ---------------------------------------------------------------------------
# entropy suites


def run_entropy_dp(seed: int, instances: int) -> SuiteResult:
    alphas = (1.0, 0.3, 0.5, 0.9)  # 1.0 marks the relative entropy itself
    rho_s, sig_s, kraus_s = _child_streams(_suite_rngs(seed, "entropy-dp", instances), 3)
    rho = random_density_stack(2, rho_s, min_eig_floor=0.01)
    sig = random_density_stack(2, sig_s, min_eig_floor=0.01)
    kraus = random_channel_kraus_stack(2, 2, 2, kraus_s)
    rho_out = density_stack(apply_kraus(rho, kraus))
    sig_out = density_stack(apply_kraus(sig, kraus))
    columns = []
    for alpha in alphas:
        if alpha == 1.0:
            before = en.relative_entropy(rho, sig)
            after = en.relative_entropy(rho_out, sig_out)
        else:
            before = en.renyi_relative_entropy(rho, sig, alpha)
            after = en.renyi_relative_entropy(rho_out, sig_out, alpha)
        columns.append((alpha, before.tolist(), after.tolist()))
    rows = [[i, seed, alpha, before[i], after[i], before[i] - after[i]]
            for i in range(instances) for alpha, before, after in columns]
    cols = ["instance_id", "seed", "alpha", "lhs", "rhs", "margin"]
    return _finish("entropy-dp", cols, rows, [r[-1] for r in rows], 1e-8)


def run_entropy_var(seed: int, instances: int) -> SuiteResult:
    """Dominance of the variational value and equality at its maximizer."""
    rho_s, sig_s, g_s = _child_streams(_suite_rngs(seed, "entropy-var", instances), 3)
    rho = random_density_stack(2, rho_s, min_eig_floor=0.05)
    sig = random_density_stack(2, sig_s, min_eig_floor=0.05)
    d = en.relative_entropy(rho, sig).tolist()
    g_rand = random_psd_stack(2, g_s, min_eig_floor=0.1)
    v_rand = en.relative_entropy_variational_value(rho, sig, g_rand).tolist()
    g_opt = la.hermitize(la.expm_herm(la.logm_psd(rho) - la.logm_psd(sig)))
    v_opt = en.relative_entropy_variational_value(rho, sig, g_opt).tolist()
    rows = []
    for i in range(instances):
        gap = abs(d[i] - v_opt[i])
        rows.append([i, seed, "dominance", d[i], v_rand[i], d[i] - v_rand[i]])
        rows.append([i, seed, "equality", 1e-8, gap, 1e-8 - gap])
    cols = ["instance_id", "seed", "kind", "lhs", "rhs", "margin"]
    return _finish("entropy-var", cols, rows, [r[-1] for r in rows], 1e-9)


def run_renyi_limit(seed: int, instances: int) -> SuiteResult:
    rho_s, sig_s = _child_streams(_suite_rngs(seed, "renyi-limit", instances), 2)
    rho = random_density_stack(2, rho_s, min_eig_floor=0.1)
    sig = random_density_stack(2, sig_s, min_eig_floor=0.1)
    d = en.relative_entropy(rho, sig).tolist()
    da = en.renyi_relative_entropy(rho, sig, 0.999).tolist()
    rows = []
    for i in range(instances):
        gap = abs(da[i] - d[i])
        rows.append([i, seed, 0.999, 1e-3, gap, 1e-3 - gap])
    cols = ["instance_id", "seed", "alpha", "lhs", "rhs", "margin"]
    return _finish("renyi-limit", cols, rows, [r[-1] for r in rows], 0.0)


# ---------------------------------------------------------------------------
# hypothesis-testing suites


def np_scan_oracle_stack(r0: np.ndarray, r1: np.ndarray, eps) -> np.ndarray:
    """Independent optimal-test scan for each pair of density-matrix entries
    in stacks (N, d, d), with one budget ``eps`` or one per pair: thresholds
    from the Hermitian ratio operator on the support of rho1, a gridded
    randomization weight (about 400 weights over all thresholds) plus the
    exact budget-saturating weight at each threshold, brute minimum.  Each
    value has the bits of the pair's stack of one."""
    n, dim = r0.shape[0], r0.shape[-1]
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    w1, v1 = np.linalg.eigh(r1)
    supp = w1 > 1e-12 * np.maximum(1.0, w1[:, -1])[:, None]
    # r1^(-1/2) on the support, from the support columns alone
    isq = np.zeros_like(r1)
    counts = supp.sum(axis=-1)
    for k in np.unique(counts).tolist():
        idx = np.flatnonzero(counts == k)
        cols = np.ascontiguousarray(v1[idx][..., dim - k:])
        isq[idx] = (cols * (w1[idx][:, dim - k:] ** -0.5)[:, None, :]) @ la.dagger(cols)
    ratio = la.hermitize(isq @ r0 @ isq, tol=1e-8)
    cands = [sorted(set(round(t, 14) for t in [0.0] + [max(0.0, t) for t in row]))
             for row in np.linalg.eigvalsh(ratio).tolist()]
    per_t = np.array([max(2, 400 // max(1, len(c)) - 1) for c in cands])
    # every (member, threshold) pencil r0 - t r1, diagonalized in bounded steps
    owner = np.repeat(np.arange(n), [len(c) for c in cands])
    ts = np.array([t for c in cands for t in c])
    a0, b0, c1, d1 = np.zeros((4, len(ts)))
    step = max(1, STACK_BYTES // (16 * dim * dim))
    for lo in range(0, len(ts), step):
        sl = slice(lo, lo + step)
        a0[sl], b0[sl], c1[sl], d1[sl] = _span_weights(r0[owner[sl]], r1[owner[sl]], ts[sl])
    eps_p, grids = eps[owner], per_t[owner]
    best = np.full(n, math.inf)
    for count in np.unique(grids).tolist():
        xs = np.linspace(0.0, 1.0, count)
        rows = np.flatnonzero(grids == count)
        step = max(1, STACK_BYTES // (8 * count))  # grid rows per float64 array
        for lo in range(0, len(rows), step):
            j = rows[lo:lo + step]
            alpha = 1.0 - a0[j, None] - xs * b0[j, None]
            vals = np.where(alpha <= eps_p[j, None] + 1e-12, c1[j, None] + xs * d1[j, None], math.inf)
            np.minimum.at(best, owner[j], vals.min(axis=-1))
    # the exact budget-saturating weight
    sat = b0 > 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.minimum(1.0, np.maximum(0.0, (1.0 - eps_p - a0) / b0))
    alpha = 1.0 - a0 - x * b0
    np.minimum.at(best, owner, np.where(sat & (alpha <= eps_p + 1e-12), c1 + x * d1, math.inf))
    # tests living on the kernel of rho1 are free of type-II error
    for i in np.flatnonzero(~supp.all(axis=-1)).tolist():
        ker = v1[i][:, ~supp[i]]
        comp = la.hermitize(ker.conj().T @ r0[i] @ ker, tol=1e-9)
        wk, vk = np.linalg.eigh(comp)
        cols = ker @ vk[:, wk > 1e-12]
        type_one = 1.0 - (float(np.real(np.sum(cols.conj() * (r0[i] @ cols)))) if cols.size else 0.0)
        if type_one <= eps[i] + 1e-12:
            type_two = float(np.real(np.sum(cols.conj() * (r1[i] @ cols)))) if cols.size else 0.0
            best[i] = min(best[i], max(0.0, type_two))
    return np.array([max(0.0, min(1.0, b)) for b in best.tolist()])


def _span_weights(r0: np.ndarray, r1: np.ndarray, ts: np.ndarray):
    """Weights (a0, b0, c1, d1) of r0 and r1 on the positive and boundary
    eigenspaces of the pencils r0[k] - ts[k] r1[k], stacks (P, d, d).

    Pencils whose span keeps the same eigenvector columns are weighted
    together on a contiguous copy of those columns, so each weight is summed
    as a call on its pencil alone sums it.
    """
    w, v = np.linalg.eigh(r0 - ts[:, None, None] * r1)
    tol_b = 1e-8 * np.maximum(1.0, np.abs(w).max(axis=-1))[:, None]
    out = np.zeros((2, 2, len(ts)))  # [span][matrix][pencil]
    for s, mask in enumerate((w > tol_b, np.abs(w) <= tol_b)):
        for pattern in np.unique(mask, axis=0):
            if not pattern.any():
                continue
            rows = np.flatnonzero((mask == pattern).all(axis=-1))
            cols = np.ascontiguousarray(v[rows][..., pattern])
            for h, mats in enumerate((r0, r1)):
                prod = cols.conj() * (mats[rows] @ cols)
                out[s, h, rows] = prod.reshape(len(rows), -1).sum(axis=-1).real
    (a0, c1), (b0, d1) = out
    return a0, b0, c1, d1


def run_np_oracle(seed: int, instances: int) -> SuiteResult:
    rngs = _suite_rngs(seed, "np-oracle", instances)
    draws = [(2 if rng.uniform() < 0.5 else 3, float(rng.uniform(0.02, 0.95))) for rng in rngs]
    rho0_s, rho1_s = _child_streams(rngs, 2)
    rows = [None] * instances
    for dim, idx in _groups(d[0] for d in draws):
        eps = [draws[i][1] for i in idx]
        rho0 = random_density_stack(dim, [rho0_s[i] for i in idx], min_eig_floor=0.01)
        rho1 = random_density_stack(dim, [rho1_s[i] for i in idx], min_eig_floor=0.01)
        beta = ht.neyman_pearson_beta_stack(rho0, rho1, eps).tolist()
        oracle = np_scan_oracle_stack(rho0, rho1, eps).tolist()
        for i, e, b, o in zip(idx, eps, beta, oracle):
            rows[i] = [i, seed, dim, e, b, o, 1e-9 - abs(b - o)]
    cols = ["instance_id", "seed", "dim", "eps", "lhs", "rhs", "margin"]
    return _finish("np-oracle", cols, rows, [r[-1] for r in rows], 0.0)


#: fixed qubit pairs for the exponent-trend check: moderate relative entropy
#: (0.4 to 0.95 nats), where the blocklength-6 estimate sits well inside the
#: 25% band at type-I budget 0.2
_TREND_SEEDS = ((202, 203), (232, 233), (240, 241))


def run_np_trend(seed: int, instances: int) -> SuiteResult:
    rows = []
    for i, (s0, s1) in enumerate(_TREND_SEEDS[:instances]):
        rho = random_density(2, s0, min_eig_floor=0.1)
        sig = random_density(2, s1, min_eig_floor=0.1)
        d = en.relative_entropy(rho, sig)
        n = 6
        rho_n = DensityMatrix(tensor_all([rho] * n))
        sig_n = DensityMatrix(tensor_all([sig] * n))
        beta, _ = ht.neyman_pearson_beta(rho_n, sig_n, 0.2)
        est = -math.log(beta) / n
        rows.append([i, seed, n, est, d, 0.25 * d - abs(est - d)])
    cols = ["instance_id", "seed", "n", "lhs", "rhs", "margin"]
    return _finish("np-trend", cols, rows, [r[-1] for r in rows], 0.0)


def _cq_draw(rng, x_size: int):
    """The distribution and state seeds ``_random_cq_source`` draws."""
    q = rng.dirichlet(np.full(x_size, 4.0))
    q = 0.5 * q + 0.5 / x_size  # keep eta moderate
    q = q / q.sum()
    return q, rng.integers(0, 2**31 - 1, size=x_size).tolist()


def _random_cq_source(rng, x_size: int, d_y: int, floor: float = 0.05) -> ht.CQSource:
    q, seeds = _cq_draw(rng, x_size)
    states = [random_density(d_y, s, min_eig_floor=floor) for s in seeds]
    return ht.CQSource([str(k) for k in range(x_size)], q, states)


def run_key_inequality(seed: int, instances: int) -> SuiteResult:
    c_choices = (1.5, 2.0)
    t_choices = (0.1, 0.5, 1.0)

    def one(i):
        rng = _rng_for(seed, "key-inequality", i)
        n = 1 if rng.uniform() < 0.5 else 2
        x_size = int(rng.integers(2, 4)) if n == 1 else 2
        src = _random_cq_source(rng, x_size, 2)
        c = float(c_choices[int(rng.integers(0, 2))])
        t = float(t_choices[int(rng.integers(0, 3))])
        k = x_size**n
        # a random sub-probability measure on sequences
        mu = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.3, 1.0))
        d = 2**n
        if rng.uniform() < 0.5:
            vec = rng.normal(size=d) + 1j * rng.normal(size=d)
            vec /= np.linalg.norm(vec)
            t_arr = np.outer(vec, vec.conj())
        else:
            raw = random_psd(d, _child_seed(rng)).entries
            t_arr = raw / (np.linalg.eigvalsh(raw)[-1] + 1e-9)
        t_op = HermitianOperator(t_arr, (2,) * n)
        m = bd.verify_key_inequality(mu, src, t_op, c, t)
        return [i, seed, n, x_size, c, t, m.lhs, m.rhs, m.relative_margin]

    rows = [one(i) for i in range(instances)]
    cols = ["instance_id", "seed", "n", "x_size", "c", "t", "lhs", "rhs", "margin"]
    return _finish("key-inequality", cols, rows, [r[-1] for r in rows], 1e-6)


def run_image_size(seed: int, instances: int) -> SuiteResult:
    """Single-test image-size margins over random measures, tests, and
    trade-off weights at blocklengths up to 3.  Delta, in the bound side, is
    certified to 1e-12 at c < 1 and a (safe) lower estimate at c >= 1."""

    def one(i):
        rng = _rng_for(seed, "image-size", i)
        n = int(rng.integers(1, 4))
        src = _random_cq_source(rng, 2, 2)
        k, d = 2**n, 2**n
        mu = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.4, 1.0))
        raw = random_psd(d, _child_seed(rng)).entries
        if rng.uniform() < 0.5:
            w, v = np.linalg.eigh(raw)
            cols = v[:, w > np.median(w)]
            t_arr = cols @ cols.conj().T
        else:
            t_arr = raw / (np.linalg.eigvalsh(raw)[-1] + 1e-9)
        t_op = HermitianOperator(t_arr, (2,) * n)
        sigma = random_density(2, _child_seed(rng), min_eig_floor=0.1)
        c = float(rng.uniform(0.4, 2.0))
        delta_prob = float(rng.uniform(0.2, 0.8))
        m = bd.image_size_bound_i(mu, src, sigma, t_op, c, delta_prob)
        margin = m.margin if math.isfinite(m.margin) else 1.0
        return [i, seed, n, c, delta_prob, m.lhs, m.rhs, margin]

    rows = [one(i) for i in range(instances)]
    cols = ["instance_id", "seed", "n", "c", "delta", "lhs", "rhs", "margin"]
    return _finish("image-size", cols, rows, [r[-1] for r in rows], 1e-6)


def run_expurgation(seed: int, instances: int) -> SuiteResult:
    """Expurgation guarantees, recomputed explicitly, on random families.

    Each instance is a random binary-qubit source at n = 2 under a random
    deterministic encoder into 4 messages, with a random test per message.
    All instances are evaluated as stacks; instances with equally many
    messages share one ``expurgate_stack`` call.
    """
    cols = ["instance_id", "seed", "kind", "eps_prime", "lhs", "rhs", "margin"]
    if not instances:
        return _finish("expurgation", cols, [], [], 1e-10)
    rngs = _suite_rngs(seed, "expurgation", instances)
    sources = [_cq_draw(rng, 2) for rng in rngs]
    msg_labels = [str(w) for w in range(4)]
    # one-hot kernels: each stream draws a message for each of the 4 sequences
    kernels = np.stack([np.eye(4)[rng.integers(0, 4, size=4)] for rng in rngs])
    q = np.array([qx for qx, _ in sources])
    states = random_density_stack(2, [s for _, seeds in sources for s in seeds], min_eig_floor=0.05)
    states = states.reshape(instances, 2, 2, 2)
    q2, states2 = ht.product_stack(q, states, 2)
    inst, msg, p_pair, sigma = ht.encode_stack(q2, density_stack(states2), kernels)
    sigma = density_stack(sigma)
    rho_y = density_stack(ht.average_states(q, states))
    rho1 = density_stack(la.kron_pairs(rho_y, rho_y))
    # each stream then draws a test per kept message, then its budget
    counts = np.bincount(inst, minlength=instances)
    raw = random_psd_stack(4, [s for rng, k in zip(rngs, counts.tolist())
                               for s in rng.integers(0, 2**31 - 1, size=k).tolist()])
    top = np.linalg.eigvalsh(raw)[:, -1]
    ops = ht.measurement_stack(raw / (top + 1e-9)[:, None, None],
                               [msg_labels[j] for j in msg.tolist()])
    eps_all = [float(rng.uniform(0.05, 0.9)) for rng in rngs]

    def trace(a, b):
        return np.trace(a @ b, axis1=-2, axis2=-1).real

    rows = [None] * instances
    first = np.cumsum(counts) - counts
    for k, idx in _groups(counts.tolist()):
        pairs = first[idx][:, None] + np.arange(k)
        p, fam, sig, r1 = p_pair[pairs], ops[pairs], sigma[pairs], rho1[idx]
        eps_prime = np.array([eps_all[i] for i in idx])
        order, out = ht.expurgate_stack(fam, p, sig, r1, eps_prime)
        # recompute both guarantees explicitly, in message order
        out_by_msg = np.take_along_axis(out, np.argsort(order, axis=-1)[..., None, None], axis=1)
        alpha_old = sum(p[:, j] * (1.0 - trace(sig[:, j], fam[:, j])) for j in range(k))
        beta_old = sum(p[:, j] * trace(r1, fam[:, j]) for j in range(k))
        alpha_new = sum(p[:, j] * (1.0 - trace(sig[:, j], out_by_msg[:, j])) for j in range(k))
        kept_beta = trace(r1[:, None], out)
        worst_beta = kept_beta[:, 0]
        for j in range(1, k):  # max() keeps the first of equal values
            worst_beta = np.where(kept_beta[:, j] > worst_beta, kept_beta[:, j], worst_beta)
        m1 = (alpha_old + eps_prime) - alpha_new
        m2 = beta_old / eps_prime - worst_beta
        for r, i in enumerate(idx):
            e = eps_all[i]
            rows[i] = [
                [i, seed, "type-one", e, alpha_old[r] + e, alpha_new[r], m1[r]],
                [i, seed, "per-message", e, beta_old[r] / e, worst_beta[r], m2[r]],
            ]
    rows = [row for group in rows for row in group]
    return _finish("expurgation", cols, rows, [r[-1] for r in rows], 1e-10)


# ---------------------------------------------------------------------------
# bottleneck machinery suite


def run_bottleneck(seed: int, instances: int) -> SuiteResult:
    c_choices = (1.0, 1.5, 2.0)

    def one(i):
        rng = _rng_for(seed, "bottleneck", i)
        x_size = int(rng.integers(2, 4))
        d_y = int(rng.integers(2, 4))
        src = _random_cq_source(rng, x_size, d_y)
        c = float(c_choices[i % 3])
        rows = []
        inst = bn.DeltaInstance(src.q_x, src.states, HermitianOperator(src.rho_y.entries), c)
        solver = bn.delta(inst, cross_check=False)
        grid = bn.delta_grid_value(inst)
        rows.append([i, seed, "fixed-point-vs-grid", c, solver.value, grid.value,
                     1e-3 - abs(solver.value - grid.value)])
        star = bn.delta_star(src.q_x, src.states, src.rho_y, c, x_size + 1)
        rows.append([i, seed, "star-below-delta", c, max(solver.value, grid.value),
                     star.value, max(solver.value, grid.value) - star.value])
        star_bigger = bn.delta_star(src.q_x, src.states, src.rho_y, c, x_size + 2)
        rows.append([i, seed, "star-stabilized", c, 1e-6,
                     star_bigger.value - star.value,
                     1e-6 - abs(star_bigger.value - star.value)])
        eps = float(rng.uniform(0.05, 0.3))
        # shift mass m onto symbol j, staying below (1+eps) q componentwise
        j = int(rng.integers(0, x_size))
        m_shift = eps * src.q_x[j] * float(rng.uniform(0.2, 1.0))
        p_tilde = src.q_x * (1.0 - m_shift / (1.0 - src.q_x[j]))
        p_tilde[j] = src.q_x[j] + m_shift
        cm = bn.continuity_margin(p_tilde, src.q_x, src.states, src.rho_y, c, eps,
                                  x_size + 1, multistarts=24)
        rows.append([i, seed, "continuity", c, cm.lhs, cm.rhs, cm.margin])
        var_t = random_psd(d_y, _child_seed(rng), min_eig_floor=0.1)
        var_val = bn.delta_variational_value(inst, var_t)
        rows.append([i, seed, "variational-below", c, max(solver.value, grid.value),
                     var_val, max(solver.value, grid.value) - var_val])
        return rows

    nested = [one(i) for i in range(instances)]
    rows = [row for group in nested for row in group]
    cols = ["instance_id", "seed", "kind", "c", "lhs", "rhs", "margin"]
    return _finish("bottleneck", cols, rows, [r[-1] for r in rows], 1e-5)


# ---------------------------------------------------------------------------
# fixed-instance suites


#: the single-letterization certificate instance: uniform binary input
#: (eta = 2), informative qubit outputs (I(X;Y) about 0.2 nats), n = 8,
#: delta = 0.9, c = 1.5
_SINGLE_LETTER_SEEDS = (84, 85)


def run_single_letter(seed: int, instances: int) -> SuiteResult:
    rows = []
    if instances >= 1:
        s0 = random_density(2, _SINGLE_LETTER_SEEDS[0], min_eig_floor=0.02)
        s1 = random_density(2, _SINGLE_LETTER_SEEDS[1], min_eig_floor=0.02)
        avg = DensityMatrix(0.5 * (s0.entries + s1.entries))
        report = bn.single_letter_gap(np.array([0.5, 0.5]), (s0, s1), avg, 1.5, 8, 0.9, 3)
        # the multistart lhs (the reported margin), then its certified bound
        for lhs in (report.constants["lhs"], report.constants["certified_lhs"]):
            rows.append([0, seed, 8, 1.5, 0.9, report.total, lhs, report.total - lhs])
    cols = ["instance_id", "seed", "n", "c", "delta", "lhs", "rhs", "margin"]
    return _finish("single-letter", cols, rows, [r[-1] for r in rows], 1e-4)


#: three fixed binary-qubit sources for the soundness sweep
_SOUNDNESS_SOURCES = (
    ((0.5, 0.5), (301, 302), 0.10),
    ((0.3, 0.7), (303, 304), 0.05),
    ((0.6, 0.4), (305, 306), 0.15),
)


def _fixed_source(idx: int) -> ht.CQSource:
    q, (sa, sb), floor = _SOUNDNESS_SOURCES[idx]
    states = [
        random_density(2, sa, min_eig_floor=floor),
        random_density(2, sb, min_eig_floor=floor),
    ]
    return ht.CQSource(["0", "1"], q, states)


def run_soundness(seed: int, instances: int) -> SuiteResult:
    """Brute-force exponents never exceed the formally evaluated bound, and
    the single-test image-size bound holds on the same instances; its Delta
    is certified to 1e-12 at c < 1 and a (safe) lower estimate at c >= 1.
    The brute force solves one encoder per symmetry orbit of its maps.

    The blocklength threshold of the strong-converse statement is waived
    here (n <= 3 is far below it); the bound's three terms are evaluated
    formally as a sanity check, as the margins records note.  An instance is
    one source with all its rows.
    """
    eps = 0.4
    rows = []
    rid = 0
    for s_idx in range(min(instances, len(_SOUNDNESS_SOURCES))):
        src = _fixed_source(s_idx)
        first_cache = {}
        for n in (1, 2, 3):
            for w_target in (1, 2):
                r = (math.log(1.5) if w_target == 1 else math.log(2.5)) / n
                beta, _ = ht.brute_force_beta_distributed(src, n, r, eps)
                exponent = -math.log(max(beta, 1e-300)) / n
                key = round(r, 12)
                if key not in first_cache:
                    first_cache[key] = bd.bottleneck_sup_constrained(src, r, 3)[0]
                total = (
                    first_cache[key]
                    + bd.k_epsilon(src.eta, src.gamma, src.size, eps) / math.sqrt(n)
                    + 2.0 / n * math.log(4.0 / (1.0 - eps))
                )
                rows.append([rid, seed, s_idx, n, w_target, "stein", total, exponent,
                             total - exponent])
                rid += 1
        # image-size margins on the same sources
        rng = _rng_for(seed, "soundness", s_idx)
        for n in (1, 2):
            c = float(rng.uniform(0.5, 2.0))
            delta_prob = float(rng.uniform(0.2, 0.8))
            k = src.size**n
            mu = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.5, 1.0))
            d = src.d_y**n
            raw = random_psd(d, _child_seed(rng)).entries
            w, v = np.linalg.eigh(raw)
            proj = (v[:, w > np.median(w)] @ v[:, w > np.median(w)].conj().T)
            t_op = HermitianOperator(proj, (src.d_y,) * n)
            sigma = random_density(src.d_y, _child_seed(rng), min_eig_floor=0.1)
            m = bd.image_size_bound_i(mu, src, sigma, t_op, c, delta_prob)
            rows.append([rid, seed, s_idx, n, 0, "image-size", m.lhs, m.rhs, m.margin])
            rid += 1
    cols = ["instance_id", "seed", "source", "n", "w_target", "kind", "lhs", "rhs", "margin"]
    return _finish("soundness", cols, rows, [r[-1] for r in rows], 1e-6)


def run_sandwich(seed: int, instances: int) -> SuiteResult:
    """At rates above H(X) the constrained supremum meets I(X;Y), and the
    n = 1 encoded divergence with an identity encoder meets it exactly.  An
    instance is one source with its two rows."""
    rows = []
    for s_idx in range(min(instances, len(_SOUNDNESS_SOURCES))):
        src = _fixed_source(s_idx)
        ixy = bd.source_mutual_information(src)
        hx = bd.source_entropy(src)
        val, _ = bd.bottleneck_sup_constrained(src, hx + 0.05, 3)
        rows.append([2 * s_idx, seed, s_idx, "rate-saturation", val, ixy,
                     1e-5 - abs(val - ixy)])
        theta = bd.theta_n_lower(src, [src.rho_y] * src.size, 1, math.log(src.size) + 0.05)
        joint = src.joint_state()
        direct = en.relative_entropy(joint, src.independence_alternative())
        rows.append([2 * s_idx + 1, seed, s_idx, "theta-identity", theta, direct,
                     1e-9 - abs(theta - direct)])
    cols = ["instance_id", "seed", "source", "kind", "lhs", "rhs", "margin"]
    return _finish("sandwich", cols, rows, [r[-1] for r in rows], 0.0)


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "alt": run_alt,
    "reverse-holder": run_reverse_holder,
    "reverse-alt": run_reverse_alt,
    "rhc": run_rhc,
    "entropy-dp": run_entropy_dp,
    "entropy-var": run_entropy_var,
    "renyi-limit": run_renyi_limit,
    "np-oracle": run_np_oracle,
    "np-trend": run_np_trend,
    "key-inequality": run_key_inequality,
    "expurgation": run_expurgation,
    "bottleneck": run_bottleneck,
    "image-size": run_image_size,
    "single-letter": run_single_letter,
    "soundness": run_soundness,
    "sandwich": run_sandwich,
}

#: default instance budgets (for the fixed-instance suites, all their instances)
DEFAULT_INSTANCES = {
    "alt": 500,
    "reverse-holder": 500,
    "reverse-alt": 500,
    "rhc": 500,
    "entropy-dp": 1000,
    "entropy-var": 500,
    "renyi-limit": 200,
    "np-oracle": 200,
    "np-trend": 3,
    "key-inequality": 500,
    "expurgation": 200,
    "bottleneck": 12,
    "image-size": 500,
    "single-letter": 1,
    "soundness": 3,
    "sandwich": 3,
}


def run_suite(name: str, seed: int, instances: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    budget = instances if instances is not None else DEFAULT_INSTANCES[name]
    if budget < 0:
        raise ValidationError(f"instances must be nonnegative; got {budget!r}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative; got {seed!r}")
    return SUITES[name](seed, budget)
