"""The stacked verify suites against their instances rebuilt one at a time.

Each reference below redraws one instance from its own stream and calls the
public single-instance functions; every row must print the same bytes.
"""

import math

import pytest

from cqbounds import _linalg as la
from cqbounds import entropy as en
from cqbounds import semigroup as sg
from cqbounds import verify as vf
from cqbounds.cli import _fmt
from cqbounds.operators import (
    DensityMatrix,
    HermitianOperator,
    apply_kraus,
    random_channel_kraus,
    random_density,
    random_psd,
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
            before = en.relative_entropy(rho, sig).nats
            after = en.relative_entropy(rho_out, sig_out).nats
        else:
            before = en.renyi_relative_entropy(rho, sig, alpha).nats
            after = en.renyi_relative_entropy(rho_out, sig_out, alpha).nats
        rows.append([i, SEED, alpha, before, after, before - after])
    return rows


def _entropy_var(i):
    rng = vf._rng_for(SEED, "entropy-var", i)
    rho = random_density(2, vf._child_seed(rng), min_eig_floor=0.05)
    sig = random_density(2, vf._child_seed(rng), min_eig_floor=0.05)
    d = en.relative_entropy(rho, sig).nats
    g_rand = random_psd(2, vf._child_seed(rng), min_eig_floor=0.1)
    v_rand = en.relative_entropy_variational_value(rho, sig, g_rand).nats
    g_opt = HermitianOperator(
        la.expm_herm(la.logm_psd(rho.entries) - la.logm_psd(sig.entries))
    )
    v_opt = en.relative_entropy_variational_value(rho, sig, g_opt).nats
    return [
        [i, SEED, "dominance", d, v_rand, d - v_rand],
        [i, SEED, "equality", 1e-8, abs(d - v_opt), 1e-8 - abs(d - v_opt)],
    ]


def _renyi_limit(i):
    rng = vf._rng_for(SEED, "renyi-limit", i)
    rho = random_density(2, vf._child_seed(rng), min_eig_floor=0.1)
    sig = random_density(2, vf._child_seed(rng), min_eig_floor=0.1)
    d = en.relative_entropy(rho, sig).nats
    da = en.renyi_relative_entropy(rho, sig, 0.999).nats
    return [[i, SEED, 0.999, 1e-3, abs(da - d), 1e-3 - abs(da - d)]]


REFERENCES = {
    "alt": _alt,
    "reverse-holder": _reverse_holder,
    "reverse-alt": _reverse_alt,
    "entropy-dp": _entropy_dp,
    "entropy-var": _entropy_var,
    "renyi-limit": _renyi_limit,
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
