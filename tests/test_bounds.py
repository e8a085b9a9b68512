import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from cqbounds import (
    CQSource,
    DensityMatrix,
    DomainError,
    HermitianOperator,
    PreconditionError,
    bottleneck_sup_constrained,
    image_size_bound_i,
    image_size_bound_ii,
    image_size_constant,
    k_epsilon,
    random_density,
    random_psd,
    relative_entropy,
    sc_bound_stein,
    source_coding_bound,
    source_coding_first_order,
    source_conditional_output_entropy,
    source_entropy,
    source_mutual_information,
    tensor_all,
    theta_n_lower,
    verify_key_inequality,
)
from cqbounds import _linalg as la
from cqbounds import bounds
from cqbounds.bottleneck import DeltaInstance, chain_informations, delta, delta_star
from cqbounds.hyptest import product_stack
from cqbounds.model_io import load_model
from cqbounds.semigroup import psi_map_sites
from cqbounds.verify import _fixed_source

EXAMPLE_MODEL = Path(__file__).resolve().parents[1] / "model.example.json"


def _src(seed0=84, seed1=85, q=(0.5, 0.5), floor=0.02):
    return CQSource(
        ["0", "1"],
        q,
        [random_density(2, seed0, min_eig_floor=floor), random_density(2, seed1, min_eig_floor=floor)],
    )


def _constant_source(seed=17):
    s = random_density(2, seed, min_eig_floor=0.2)
    return CQSource(["0", "1"], [0.5, 0.5], [s, s])


def test_theta_identity_encoder_reaches_joint_divergence():
    src = _src()
    alt = [src.rho_y] * 2  # testing against independence
    val = theta_n_lower(src, alt, 1, math.log(2.0) + 0.05)
    direct = relative_entropy(src.joint_state(), src.independence_alternative())
    assert abs(val - direct) < 1e-9


def test_theta_single_message():
    src = _src()
    alt_states = [random_density(2, 91, min_eig_floor=0.1)] * 2
    val = theta_n_lower(src, alt_states, 1, 0.1)  # |W| = 1
    direct = relative_entropy(src.rho_y, HermitianOperator(alt_states[0].entries))
    assert abs(val - direct) < 1e-9


def test_theta_monotone_in_blocklength():
    src = _src()
    alt = [src.rho_y] * 2
    r1 = math.log(2.0)
    t1 = theta_n_lower(src, alt, 1, r1)
    t2 = theta_n_lower(src, alt, 2, r1)
    assert t1 <= t2 + 1e-9


def test_theta_rejects_bob_compression():
    src = _src()
    with pytest.raises(DomainError):
        theta_n_lower(src, [src.rho_y] * 2, 1, 0.5, r2_infinite=False)


def _chain(src, kernel):
    """(I(U;Y), I(U;X)) of the chain U <- X -> Y through a classical kernel."""
    stack = np.stack([s.entries for s in src.states])
    return chain_informations(src.q_x, stack, src.rho_y.entries, kernel)


def test_stein_independence_objective():
    src = _src()
    i_uy, i_ux = _chain(src, np.eye(src.size))
    assert abs(i_uy - source_mutual_information(src)) < 1e-10
    assert abs(i_ux - source_entropy(src)) < 1e-12
    assert i_uy <= i_ux + 1e-9

    i_uy, i_ux = _chain(src, np.ones((src.size, 1)))
    assert abs(i_uy) < 1e-10 and abs(i_ux) < 1e-12


def test_stein_objective_additive_over_letters():
    src = _src()
    q2, states2 = product_stack(src.q_x, np.stack([s.entries for s in src.states]), 2)
    kernel = np.array([[0.8, 0.2], [0.3, 0.7]])
    one = _chain(src, kernel)
    rho2 = np.kron(src.rho_y.entries, src.rho_y.entries)
    two = chain_informations(q2, states2, rho2, np.kron(kernel, kernel))
    assert abs(two[0] - 2 * one[0]) < 1e-9
    assert abs(two[1] - 2 * one[1]) < 1e-9


def test_bottleneck_sup_constrained_endpoints():
    src = _src()
    val0, _ = bottleneck_sup_constrained(src, 0.0, 3, multistarts=8)
    assert abs(val0) < 1e-9
    hx = source_entropy(src)
    val, curve = bottleneck_sup_constrained(src, hx + 0.1, 3, multistarts=8)
    assert abs(val - source_mutual_information(src)) < 1e-5
    assert curve[-1][0] == math.inf


def test_bottleneck_sup_finds_optimum_beyond_c_16():
    # the optimal weight for this source and rate lies near c = 20: a search
    # that stops at c = 16 returns (delta_star(16) + r)/16 instead
    src = _fixed_source(2)
    r = math.log(1.5)
    val, _ = bottleneck_sup_constrained(src, r, 3)
    at_16 = (delta_star(src.q_x, src.states, src.rho_y, 16.0, 3, multistarts=16).value + r) / 16.0
    assert val < at_16 - 1e-4


def test_closed_forms_at_full_rate_need_no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("delta_star solved at a rate >= H(X)")

    monkeypatch.setattr(bounds, "delta_star", no_solve)
    monkeypatch.setattr(bounds, "_delta_star_cache", {})
    src = _src()
    hx = source_entropy(src)
    for r in (hx, hx + 0.1):
        val, curve = bottleneck_sup_constrained(src, r, 3)
        assert val == source_mutual_information(src)
        assert curve == [(math.inf, val)]
        assert source_coding_first_order(src, r, 3) == source_conditional_output_entropy(src)


def test_dual_search_evaluates_few_points():
    example, _ = load_model(EXAMPLE_MODEL)
    # on the constant source the slope stays positive at every c, but U*_1
    # already reaches I(X;Y) = 0, so the endpoint decides without doubling c
    for src, most in ((example, 16), (_constant_source(), 2)):
        val, curve = bottleneck_sup_constrained(src, 0.3)
        assert curve[-1][0] == math.inf
        assert len(curve) - 1 <= most
        assert val == min(v for _, v in curve)


def test_bottleneck_sup_monotone_in_rate():
    src = _src()
    vals = [
        bottleneck_sup_constrained(src, r, 3, multistarts=8)[0]
        for r in (0.0, 0.1, 0.25, 0.5, 0.8)
    ]
    assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))


def test_k_epsilon_closed_form():
    got = k_epsilon(2.0, 2.0, 2, 0.5)
    want = 2.0 * math.log(4.0) * math.sqrt(6.0 * math.log(16.0)) + 2.0 * math.sqrt(
        4.0 * math.log(8.0)
    )
    assert abs(got - want) < 1e-12


def test_image_size_constant_closed_form():
    got = image_size_constant(2.0, 2.0, 1.0, 2, 0.5, 0.5)
    want = math.log(2.0 * 4.0) * math.sqrt(6.0 * math.log(4.0)) + 2.0 * math.sqrt(
        1.0 * math.log(2.0)
    )
    assert abs(got - want) < 1e-12


def test_constants_monotone():
    for eta in (2.0, 3.0):
        for gamma in (1.5, 2.5):
            base = k_epsilon(eta, gamma, 2, 0.5)
            assert k_epsilon(eta + 0.5, gamma, 2, 0.5) > base
            assert k_epsilon(eta, gamma + 0.5, 2, 0.5) > base
            assert k_epsilon(eta, gamma, 2, 0.6) > base
            base_a = image_size_constant(eta, gamma, 1.0, 2, 0.5, 0.5)
            assert image_size_constant(eta + 0.5, gamma, 1.0, 2, 0.5, 0.5) > base_a
            assert image_size_constant(eta, gamma + 0.5, 1.0, 2, 0.5, 0.5) > base_a
            assert image_size_constant(eta, gamma, 1.0, 2, 0.4, 0.5) > base_a


def test_verify_key_inequality_edges():
    src = _src()
    mu = np.array([0.4, 0.5])
    eye = HermitianOperator(np.eye(2))
    m = verify_key_inequality(mu, src, eye, 1.5, 0.5)
    assert m.margin >= -1e-12
    zero = HermitianOperator(np.zeros((2, 2)))
    m0 = verify_key_inequality(mu, src, zero, 1.5, 0.5)
    assert m0.lhs == 0.0 and m0.rhs == 0.0
    with pytest.raises(DomainError):
        verify_key_inequality(mu, src, eye, 1.0, 0.5)
    with pytest.raises(DomainError):
        verify_key_inequality(mu, src, eye, 1.5, 0.0)


def test_verify_key_inequality_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(25):
        src = _src()
        n = int(rng.integers(1, 3))
        k = 2**n
        mu = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.3, 1.0))
        raw = random_psd(2**n, int(rng.integers(0, 2**31))).entries
        t_arr = raw / (np.linalg.eigvalsh(raw)[-1] + 1e-9)
        t_op = HermitianOperator(t_arr, (2,) * n)
        c = float(rng.choice([1.5, 2.0]))
        t = float(rng.choice([0.1, 0.5, 1.0]))
        m = verify_key_inequality(mu, src, t_op, c, t)
        assert m.relative_margin >= -1e-6


def test_sc_bound_stein_report():
    src = _src()
    with pytest.raises(PreconditionError):
        sc_bound_stein(src, 0.3, 0.5, 5)
    rep = sc_bound_stein(src, 0.3, 0.5, 100, multistarts=8)
    assert rep.total == rep.first_order + rep.second_order + rep.third_order
    assert abs(rep.second_order - rep.constants["K_eps"] / 10.0) < 1e-12
    assert abs(rep.third_order - 0.02 * math.log(8.0)) < 1e-12

    const = _constant_source()
    rep0 = sc_bound_stein(const, 0.3, 0.5, 100, multistarts=8)
    assert abs(rep0.first_order) < 1e-9


def test_image_size_bound_i_edges():
    src = _src()
    sigma = random_density(2, 5, min_eig_floor=0.2)
    mu = np.array([0.3, 0.45])
    eye = HermitianOperator(np.eye(2))
    m = image_size_bound_i(mu, src, sigma, eye, 1.0, 0.5)
    # observed side is ln ||mu|| (trace term vanishes for T = Id)
    assert abs(m.rhs - math.log(0.75)) < 1e-12
    assert m.margin >= -1e-6
    zero = HermitianOperator(np.zeros((2, 2)))
    m0 = image_size_bound_i(mu, src, sigma, zero, 1.0, 0.5)
    assert math.isinf(m0.margin) and m0.margin > 0


def test_image_size_bound_i_random_sweep():
    rng = np.random.default_rng(13)
    src = _src()
    for _ in range(30):
        n = int(rng.integers(1, 3))
        k, d = 2**n, 2**n
        mu = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.4, 1.0))
        raw = random_psd(d, int(rng.integers(0, 2**31))).entries
        w, v = np.linalg.eigh(raw)
        cols = v[:, w > np.median(w)]
        t_op = HermitianOperator(cols @ cols.conj().T, (2,) * n)
        sigma = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.1)
        c = float(rng.uniform(0.4, 2.0))
        dp = float(rng.uniform(0.2, 0.8))
        m = image_size_bound_i(mu, src, sigma, t_op, c, dp)
        assert m.margin >= -1e-6


def test_image_size_bound_ii_report():
    src = _src()
    sigma = random_density(2, 5, min_eig_floor=0.2)
    with pytest.raises(PreconditionError):
        image_size_bound_ii(src.q_x, src, sigma, 1.0, 0.5, 0.5, 5)
    rep = image_size_bound_ii(src.q_x, src, sigma, 1.0, 0.5, 0.5, 50, multistarts=16)
    assert rep.constants["A"] == image_size_constant(2.0, src.gamma, 1.0, 2, 0.5, 0.5)
    assert rep.third_order == math.log(2.0)

    const = _constant_source()
    # constant family against its own state: the first-order term vanishes
    rep0 = image_size_bound_ii(
        const.q_x, const, const.states[0], 1.0, 0.5, 0.5, 50, multistarts=16
    )
    assert abs(rep0.first_order) < 1e-9


def _dense_delta_and_traces(src, mu, t_op, ref, c, n):
    """Delta(mu, ref^n, c) and tr[rho_x^n T] on the support of mu, from the
    n-letter product states built one by one."""
    seqs = list(itertools.product(range(src.size), repeat=n))
    support = np.flatnonzero(mu > 0.0)
    states = [DensityMatrix(tensor_all([src.states[x] for x in seqs[i]])) for i in support]
    ref_n = tensor_all([ref] * n)
    d_val = delta(DeltaInstance(mu[support], states, ref_n, c), multistarts=16).value
    traces = np.array([la.inner_real(s.entries, t_op.entries) for s in states])
    return d_val, mu[support], traces, ref_n


@pytest.mark.parametrize("n", [3, 5])
def test_n_letter_bounds_match_dense_product_states(n):
    # at n = 3 the Delta work holds the whole product stack as one block; at
    # n = 5 it holds the last four sites and contracts the first one
    rng = np.random.default_rng(60 + n)
    src = _src()
    mu = rng.dirichlet(np.ones(2**n)) * 0.8
    raw = random_psd(2**n, 31 + n).entries
    w, v = np.linalg.eigh(raw)
    cols = v[:, w > np.median(w)]
    t_op = HermitianOperator(cols @ cols.conj().T, (2,) * n)
    c, t = 1.5, 0.5

    d_val, mu_s, traces, nu_n = _dense_delta_and_traces(src, mu, t_op, src.rho_y, c, n)
    base = la.inner_real(nu_n.entries, psi_map_sites(t_op, t, src.gamma, src.rho_y).entries)
    key = verify_key_inequality(mu, src, t_op, c, t)
    assert key.lhs == pytest.approx(base**c * math.exp(d_val), rel=1e-10)
    want_rhs = float(np.sum(mu_s * np.maximum(traces, 0.0) ** (c * (1.0 + 1.0 / t))))
    assert key.rhs == pytest.approx(want_rhs, rel=1e-10)

    sigma = random_density(2, 5, min_eig_floor=0.2)
    dp = 0.3
    d_val, mu_s, traces, sigma_n = _dense_delta_and_traces(src, mu, t_op, sigma, c, n)
    image = image_size_bound_i(mu, src, sigma, t_op, c, dp)
    want_bound = (d_val + 2.0 * c * math.sqrt(math.log(1.0 / dp)) * math.sqrt(n * (src.gamma - 1.0))
                  + c * math.log(1.0 / dp))
    assert image.lhs == pytest.approx(want_bound, rel=1e-10)
    want_observed = (math.log(float(np.sum(mu_s[traces >= dp])))
                     - c * math.log(la.inner_real(sigma_n.entries, t_op.entries)))
    assert image.rhs == pytest.approx(want_observed, rel=1e-10)


def test_image_size_ii_dominates_bound_i_on_typical_measure():
    src = _src()
    sigma = random_density(2, 5, min_eig_floor=0.2)
    from cqbounds import typical_set

    n = 8
    # blocklength 8 exceeds 3 eta ln(|X|/eps) for eps = 0.9
    ts = typical_set(src.q_x, n, 0.9)
    mu = np.zeros(2**n)
    for seq, w in zip(ts.members, ts.mu_n):
        idx = int("".join(str(s) for s in seq), 2)
        mu[idx] = w
    rng = np.random.default_rng(3)
    raw = random_psd(2**n, 19).entries
    w, v = np.linalg.eigh(raw)
    cols = v[:, w > np.median(w)]
    t_op = HermitianOperator(cols @ cols.conj().T, (2,) * n)
    m_i = image_size_bound_i(mu, src, sigma, t_op, 1.0, 0.5, delta_multistarts=8)
    rep = image_size_bound_ii(src.q_x, src, sigma, 1.0, 0.5, 0.9, n, multistarts=16)
    assert rep.total >= m_i.rhs - 1e-6  # single-letter bound dominates the observed side


def test_source_coding_first_order_endpoints():
    src = _src()
    hx = source_entropy(src)
    high = source_coding_first_order(src, hx + 0.1, 3, multistarts=8)
    assert abs(high - source_conditional_output_entropy(src)) < 1e-5
    zero = source_coding_first_order(src, 0.0, 3, multistarts=8)
    from cqbounds import von_neumann_entropy

    assert abs(zero - von_neumann_entropy(src.rho_y)) < 1e-9


def test_source_coding_monotone_and_threshold():
    src = _src()
    vals = [
        source_coding_first_order(src, w1, 3, multistarts=8)
        for w1 in (0.0, 0.2, 0.4, 0.6, 0.8)
    ]
    assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))
    with pytest.raises(PreconditionError):
        source_coding_bound(src, 0.5, 5, 0.3)
    total = source_coding_bound(src, 0.5, 200, 0.3, 3, multistarts=8)
    first = source_coding_first_order(src, 0.3, 3, multistarts=8)
    assert total < first  # the finite-n corrections are subtracted


def test_sequence_weights_states_order():
    src = _src(q=(0.3, 0.7))
    stack = np.stack([s.entries for s in src.states])
    weights, mats = product_stack(src.q_x, stack, 2)
    # sequences in lexicographic order: (0,0), (0,1), (1,0), (1,1)
    for k, (a, b) in enumerate(itertools.product(range(2), repeat=2)):
        assert weights[k] == src.q_x[a] * src.q_x[b]
        np.testing.assert_allclose(mats[k], np.kron(stack[a], stack[b]))
    assert abs(weights[0] - 0.09) < 1e-12
    np.testing.assert_allclose(
        mats[3], np.kron(src.states[1].entries, src.states[1].entries)
    )


def test_example_model_values_are_pinned():
    # recorded values: code that only restructures how theta and the dual
    # bound are computed must not move them
    src, alt = load_model(EXAMPLE_MODEL)
    assert theta_n_lower(src, alt, 2, 0.5) == pytest.approx(0.10273342072056227, rel=1e-12)
    assert source_coding_first_order(src, 0.3) == pytest.approx(0.5106321779435555, rel=1e-12)
