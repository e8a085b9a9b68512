"""The stacked verify suites against their instances rebuilt one at a time.

Each reference below redraws one instance from its own stream and calls the
public functions on it alone (the stacked ones as a stack of one); every row
must print the same bytes.
"""

import math

import numpy as np
import pytest

from cqbounds import _linalg as la
from cqbounds import entropy as en
from cqbounds import hyptest as ht
from cqbounds import semigroup as sg
from cqbounds import verify as vf
from cqbounds.cli import _fmt
from cqbounds.operators import (
    DensityMatrix,
    HermitianOperator,
    apply_kraus,
    density_stack,
    random_channel_kraus,
    random_density,
    random_psd,
    tensor_all,
)

SEED = 7
INSTANCES = 40


def _alt(i):
    rng = vf._rng_for(SEED, "alt", i)
    dim = int(rng.integers(2, 5))
    r = float(rng.uniform(0.0, 1.0))
    a = random_psd(dim, vf._child_seed(rng))
    b = random_psd(dim, vf._child_seed(rng))
    m = sg.check_alt(a, b, r)
    return [[i, SEED, dim, r, m.lhs, m.rhs, m.margin]]


def _reverse_holder(i):
    rng = vf._rng_for(SEED, "reverse-holder", i)
    dim = int(rng.integers(2, 5))
    p_choices = (0.5, -1.0, 0.25, -0.5, 0.75, -2.0)
    p = float(p_choices[int(rng.integers(0, len(p_choices)))])
    a = random_psd(dim, vf._child_seed(rng), min_eig_floor=0.05 if p < 0 else 0.0)
    b = random_psd(dim, vf._child_seed(rng), min_eig_floor=0.05)
    sigma = random_density(dim, vf._child_seed(rng), min_eig_floor=0.05)
    m = sg.check_reverse_holder(a, b, p, sigma)
    return [[i, SEED, dim, p, m.lhs, m.rhs, m.margin]]


def _reverse_alt(i):
    rng = vf._rng_for(SEED, "reverse-alt", i)
    dim = int(rng.integers(2, 5))
    r = float(rng.uniform(0.05, 1.0))
    slack = 1.0 / (2.0 * r) - 0.5
    if slack < 1e-12:
        a_exp = b_exp = math.inf
    else:
        u = float(rng.uniform(0.2, 0.8)) * slack
        a_exp, b_exp = 1.0 / u, 1.0 / (slack - u)
    a = random_psd(dim, vf._child_seed(rng))
    b = random_psd(dim, vf._child_seed(rng))
    m = sg.check_reverse_alt(a, b, r, a_exp, b_exp)
    return [[i, SEED, dim, r, a_exp, b_exp, m.lhs, m.rhs, m.margin]]


def _entropy_dp(i):
    rng = vf._rng_for(SEED, "entropy-dp", i)
    rho = random_density(2, vf._child_seed(rng), min_eig_floor=0.01)
    sig = random_density(2, vf._child_seed(rng), min_eig_floor=0.01)
    kraus = random_channel_kraus(2, 2, 2, vf._child_seed(rng))
    rho_out = DensityMatrix(apply_kraus(rho, kraus))
    sig_out = DensityMatrix(apply_kraus(sig, kraus))
    rows = []
    for alpha in (1.0, 0.3, 0.5, 0.9):
        if alpha == 1.0:
            before = en.relative_entropy(rho, sig)
            after = en.relative_entropy(rho_out, sig_out)
        else:
            before = en.renyi_relative_entropy(rho, sig, alpha)
            after = en.renyi_relative_entropy(rho_out, sig_out, alpha)
        rows.append([i, SEED, alpha, before, after, before - after])
    return rows


def _entropy_var(i):
    rng = vf._rng_for(SEED, "entropy-var", i)
    rho = random_density(2, vf._child_seed(rng), min_eig_floor=0.05)
    sig = random_density(2, vf._child_seed(rng), min_eig_floor=0.05)
    d = en.relative_entropy(rho, sig)
    g_rand = random_psd(2, vf._child_seed(rng), min_eig_floor=0.1)
    v_rand = en.relative_entropy_variational_value(rho, sig, g_rand)
    g_opt = HermitianOperator(
        la.expm_herm(la.logm_psd(rho.entries) - la.logm_psd(sig.entries))
    )
    v_opt = en.relative_entropy_variational_value(rho, sig, g_opt)
    return [
        [i, SEED, "dominance", d, v_rand, d - v_rand],
        [i, SEED, "equality", 1e-8, abs(d - v_opt), 1e-8 - abs(d - v_opt)],
    ]


def _renyi_limit(i):
    rng = vf._rng_for(SEED, "renyi-limit", i)
    rho = random_density(2, vf._child_seed(rng), min_eig_floor=0.1)
    sig = random_density(2, vf._child_seed(rng), min_eig_floor=0.1)
    d = en.relative_entropy(rho, sig)
    da = en.renyi_relative_entropy(rho, sig, 0.999)
    return [[i, SEED, 0.999, 1e-3, abs(da - d), 1e-3 - abs(da - d)]]


def _np_scan_reference(rho0, rho1, eps, budget=400):
    """``np_scan_oracle_stack`` written out for one pair of matrices."""
    r0, r1 = rho0.entries, rho1.entries
    w1, v1 = np.linalg.eigh(r1)
    supp = w1 > 1e-12 * max(1.0, float(w1[-1]))
    isq = (v1[:, supp] * (w1[supp] ** -0.5)) @ v1[:, supp].conj().T
    ratio = la.hermitize(isq @ r0 @ isq, tol=1e-8)
    cands = [0.0] + [max(0.0, float(t)) for t in np.linalg.eigvalsh(ratio)]
    cands = sorted(set(round(t, 14) for t in cands))
    per_t = max(2, budget // max(1, len(cands)) - 1)
    best = math.inf
    for t in cands:
        w, v = np.linalg.eigh(r0 - t * r1)
        tol_b = 1e-8 * max(1.0, float(np.max(np.abs(w))))
        pos = v[:, w > tol_b]
        zero = v[:, np.abs(w) <= tol_b]
        a0 = float(np.real(np.sum(pos.conj() * (r0 @ pos)))) if pos.size else 0.0
        b0 = float(np.real(np.sum(zero.conj() * (r0 @ zero)))) if zero.size else 0.0
        c1 = float(np.real(np.sum(pos.conj() * (r1 @ pos)))) if pos.size else 0.0
        d1 = float(np.real(np.sum(zero.conj() * (r1 @ zero)))) if zero.size else 0.0
        xs = list(np.linspace(0.0, 1.0, per_t))
        if b0 > 1e-14:
            xs.append(min(1.0, max(0.0, (1.0 - eps - a0) / b0)))
        for x in xs:
            if 1.0 - a0 - x * b0 <= eps + 1e-12:
                best = min(best, c1 + x * d1)
    ker = v1[:, ~supp]
    if ker.shape[1] > 0:
        comp = la.hermitize(ker.conj().T @ r0 @ ker, tol=1e-9)
        wk, vk = np.linalg.eigh(comp)
        cols = ker @ vk[:, wk > 1e-12]
        a0 = float(np.real(np.sum(cols.conj() * (r0 @ cols)))) if cols.size else 0.0
        if 1.0 - a0 <= eps + 1e-12:
            best = min(best, max(0.0, float(np.real(np.sum(cols.conj() * (r1 @ cols))))))
    return max(0.0, min(1.0, best))


def _np_oracle(i):
    rng = vf._rng_for(SEED, "np-oracle", i)
    dim = 2 if rng.uniform() < 0.5 else 3
    eps = float(rng.uniform(0.02, 0.95))
    rho0 = random_density(dim, vf._child_seed(rng), min_eig_floor=0.01)
    rho1 = random_density(dim, vf._child_seed(rng), min_eig_floor=0.01)
    beta, _ = ht.neyman_pearson_beta(rho0, rho1, eps)
    oracle = float(vf.np_scan_oracle_stack(rho0.entries[None], rho1.entries[None], eps)[0])
    assert oracle == _np_scan_reference(rho0, rho1, eps)
    return [[i, SEED, dim, eps, beta, oracle, 1e-9 - abs(beta - oracle)]]


def _expurgation(i):
    rng = vf._rng_for(SEED, "expurgation", i)
    src = vf._random_cq_source(rng, 2, 2)
    q2, states2 = ht.product_stack(src.q_x[None], np.stack([s.entries for s in src.states])[None], 2)
    kernel = np.eye(4)[[int(rng.integers(0, 4)) for _ in range(4)]]
    _, msg, p, sigma = ht.encode_stack(q2, density_stack(states2), kernel[None])
    sigma = density_stack(sigma)
    rho1 = DensityMatrix(tensor_all([src.rho_y] * 2)).entries
    raw = [random_psd(4, vf._child_seed(rng)).entries for _ in msg]
    ops = ht.measurement_stack(np.stack([r / (np.linalg.eigvalsh(r)[-1] + 1e-9) for r in raw]))
    eps_prime = float(rng.uniform(0.05, 0.9))
    order, out = ht.expurgate_stack(ops, p, sigma, rho1, eps_prime)
    out_by_msg = out[np.argsort(order)]

    def tr(a, b):
        return np.trace(a @ b).real

    alpha_old = sum(p[j] * (1.0 - tr(sigma[j], ops[j])) for j in range(len(msg)))
    beta_old = sum(p[j] * tr(rho1, ops[j]) for j in range(len(msg)))
    alpha_new = sum(p[j] * (1.0 - tr(sigma[j], out_by_msg[j])) for j in range(len(msg)))
    worst_beta = max(tr(rho1, op) for op in out)
    return [
        [i, SEED, "type-one", eps_prime, alpha_old + eps_prime, alpha_new,
         (alpha_old + eps_prime) - alpha_new],
        [i, SEED, "per-message", eps_prime, beta_old / eps_prime, worst_beta,
         beta_old / eps_prime - worst_beta],
    ]


REFERENCES = {
    "alt": _alt,
    "reverse-holder": _reverse_holder,
    "reverse-alt": _reverse_alt,
    "entropy-dp": _entropy_dp,
    "entropy-var": _entropy_var,
    "renyi-limit": _renyi_limit,
    "np-oracle": _np_oracle,
    "expurgation": _expurgation,
}


def _text(rows):
    return [",".join(_fmt(v) for v in row) for row in rows]


@pytest.mark.parametrize("suite", sorted(REFERENCES))
def test_stacked_suite_rows_match_single_instance_rebuild(suite):
    result = vf.run_suite(suite, SEED, INSTANCES)
    want = [row for i in range(INSTANCES) for row in REFERENCES[suite](i)]
    assert _text(result.rows) == _text(want)
    assert result.summary["instances"] == len(want)


@pytest.mark.parametrize("suite", sorted(REFERENCES))
def test_stacked_suite_with_no_instances(suite):
    result = vf.run_suite(suite, SEED, 0)
    assert result.rows == () and result.passed


#: the fixed-instance suites and the lengths of their instance lists
FIXED_SUITES = {"np-trend": 3, "single-letter": 1, "soundness": 3, "sandwich": 3}


def test_fixed_suites_default_to_their_full_lists():
    assert {s: vf.DEFAULT_INSTANCES[s] for s in FIXED_SUITES} == FIXED_SUITES


@pytest.mark.parametrize("suite", sorted(FIXED_SUITES))
def test_fixed_suite_with_no_instances(suite):
    result = vf.run_suite(suite, SEED, 0)
    assert result.rows == () and result.passed


def test_fixed_suite_budget_takes_a_prefix():
    full = vf.run_suite("np-trend", SEED)
    assert len(full.rows) == 3
    assert _text(vf.run_suite("np-trend", SEED, 2).rows) == _text(full.rows[:2])
    assert _text(vf.run_suite("np-trend", SEED, 8).rows) == _text(full.rows)


def test_soundness_budget_of_one_runs_source_zero_only():
    result = vf.run_suite("soundness", SEED, 1)
    source = result.columns.index("source")
    assert result.rows and {row[source] for row in result.rows} == {0}
    assert result.summary["instances"] == len(result.rows)


@pytest.mark.parametrize("margins", [[math.nan, 0.5, 0.2], [0.5, math.nan, 0.2],
                                     [0.5, 0.2, math.nan]], ids=["first", "middle", "last"])
def test_finish_fails_a_suite_with_a_nan_margin(margins):
    # min() alone skips a NaN that is not the first element
    rows = [[i, m] for i, m in enumerate(margins)]
    result = vf._finish("alt", ["instance_id", "margin"], rows, margins, 0.0)
    assert not result.passed and result.summary["pass"] is False
    assert math.isnan(result.summary["min_margin"])
