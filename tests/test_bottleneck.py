import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from cqbounds import (
    CQSource,
    DensityMatrix,
    DeltaInstance,
    DimensionMismatchError,
    DomainError,
    HermitianOperator,
    PreconditionError,
    ResourceCapError,
    ValidationError,
    continuity_margin,
    delta,
    delta_grid_value,
    delta_star,
    delta_variational_value,
    phi,
    random_density,
    random_psd,
    single_letter_gap,
    tensor_all,
    typical_set,
)
from cqbounds import bottleneck as bn
from cqbounds import hyptest as ht
from cqbounds._linalg import expm_herm, logm_psd
from cqbounds.bottleneck import _ChannelWork, _DeltaWork
from cqbounds.cli import main
from cqbounds.config import KERNEL_OVERLAP_TOL, STACK_BYTES, SUPPORT_TOL
from cqbounds.model_io import load_model, save_model

LN2 = math.log(2.0)


def _orthogonal_instance(c=2.0):
    e0 = DensityMatrix(np.diag([1.0, 0.0]))
    e1 = DensityMatrix(np.diag([0.0, 1.0]))
    nu = HermitianOperator(np.eye(2) / 2)
    return DeltaInstance([0.5, 0.5], [e0, e1], nu, c)


def _random_states(rng, k, d, floor=0.05):
    return [
        random_density(d, int(rng.integers(0, 2**31)), min_eig_floor=floor)
        for _ in range(k)
    ]


def test_delta_instance_validation():
    inst = _orthogonal_instance()
    assert inst.support.tolist() == [0, 1]
    with pytest.raises(ValidationError):
        DeltaInstance([0.7, 0.7], inst.states, inst.nu, 1.0)
    with pytest.raises(ValidationError):
        DeltaInstance([0.5, 0.5], inst.states, inst.nu, -1.0)
    with pytest.raises(ValidationError):
        DeltaInstance([0.5, 0.5], inst.states, HermitianOperator(np.diag([1.0, 0.0])), 1.0)
    with pytest.raises(DomainError):
        delta(DeltaInstance([0.0, 0.0], inst.states, inst.nu, 1.0))


def test_delta_zero_at_matched_reference():
    # nu = channel image of mu, c = 1: data processing pins the value at 0
    rng = np.random.default_rng(5)
    for _ in range(10):
        states = _random_states(rng, 2, 2)
        mu = np.array([0.4, 0.6])
        avg = mu[0] * states[0].entries + mu[1] * states[1].entries
        inst = DeltaInstance(mu, states, HermitianOperator(avg), 1.0)
        res = delta(inst)
        assert abs(res.value) < 1e-9
        np.testing.assert_allclose(res.gamma, mu, atol=1e-5)


def test_delta_orthogonal_point_mass():
    res = delta(_orthogonal_instance(c=2.0))
    assert abs(res.value - LN2) < 1e-3  # grid-certified example
    assert max(res.gamma) > 0.99


def test_delta_constant_channel():
    nu = random_density(2, 17, min_eig_floor=0.1)
    inst = DeltaInstance([0.5, 0.5], [nu, nu], HermitianOperator(nu.entries), 1.5)
    res = delta(inst)
    assert abs(res.value) < 1e-9


def test_delta_nonnegative_for_probability_and_matched_nu():
    rng = np.random.default_rng(23)
    for _ in range(10):
        states = _random_states(rng, 3, 2)
        mu = rng.dirichlet(np.ones(3))
        avg = sum(m * s.entries for m, s in zip(mu, states))
        for c in (1.0, 1.5, 2.0):
            inst = DeltaInstance(mu, states, HermitianOperator(avg), c)
            assert delta(inst).value >= -1e-10


def test_delta_grid_agreement():
    rng = np.random.default_rng(29)
    for trial in range(6):
        k = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        states = _random_states(rng, k, d)
        mu = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.5, 1.0))
        nu = random_density(d, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
        c = (1.0, 1.5, 2.0)[trial % 3]
        inst = DeltaInstance(mu, states, HermitianOperator(nu.entries), c)
        solver = delta(inst, cross_check=False)
        grid = delta_grid_value(inst)
        assert abs(solver.value - grid.value) < 1e-3
        assert solver.value >= grid.value - 1e-9  # solver at least matches the grid


def _one_point_objective(work, gamma):
    """The Delta objective at one grid point, summed as a one-point call
    sums it: one eigh, sums over the positive eigenvalues and entries."""
    sigma = work.mix(gamma)
    w = np.linalg.eigh(sigma)[0]
    pos = w > 1e-12
    d_out = float(np.sum(w[pos] * np.log(w[pos]))) - float(
        (sigma * work.log_nu.swapaxes(-1, -2)).sum().real)
    g_pos, m_pos = gamma[gamma > 0.0], work.mu_s[gamma > 0.0]
    return work.c * d_out - float(np.sum(g_pos * np.log(g_pos / m_pos)))


def test_delta_grid_stack_matches_one_point_loop(monkeypatch):
    # 2,145 grid points at |X| = 3, in stacks of 100 mixtures: every value
    # and the returned gamma have the bits of the one-point loop
    monkeypatch.setattr(ht, "STACK_BYTES", 16 * 3 * 3 * 100)
    rng = np.random.default_rng(31)
    for k, d in ((2, 2), (3, 2), (3, 3)):
        states = _random_states(rng, k, d)
        mu = rng.dirichlet(np.ones(k)) * 0.9
        nu = random_density(d, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
        work = _DeltaWork(mu, states, nu, 1.5)
        grid = np.array(list(bn._compositions(64, k)), dtype=float) / 64
        want = [_one_point_objective(work, g) for g in grid]
        assert work.objective_and_eig(grid)[0].tolist() == want
        val, gamma = bn._delta_grid(work, k)
        first = int(np.argmax(want))
        assert val == want[first] and gamma.tolist() == grid[first].tolist()


def test_delta_variational_examples():
    rng = np.random.default_rng(41)
    states = _random_states(rng, 2, 2)
    mu = np.array([0.3, 0.45])  # unnormalized
    nu = random_psd(2, 77, min_eig_floor=0.2)
    inst = DeltaInstance(mu, states, nu, 1.5)
    # T = Id: ln sum mu - c ln tr nu
    got = delta_variational_value(inst, HermitianOperator(np.eye(2)))
    want = math.log(mu.sum()) - 1.5 * math.log(float(np.trace(nu.entries).real))
    assert abs(got - want) < 1e-12
    # the maximizer-induced T reproduces the solver value
    res = delta(inst)
    sigma = sum(g * s.entries for g, s in zip(res.gamma, states))
    t_opt = HermitianOperator(expm_herm(logm_psd(sigma) - logm_psd(nu.entries)))
    assert abs(delta_variational_value(inst, t_opt) - res.value) < 1e-6
    # random T never beats the solver value
    for _ in range(50):
        t_rand = random_psd(2, int(rng.integers(0, 2**31)), min_eig_floor=0.1)
        assert delta_variational_value(inst, t_rand) <= res.value + 1e-8
    with pytest.raises(DomainError):
        delta_variational_value(inst, HermitianOperator(np.diag([1.0, 0.0])))


def _variational_with_scipy(inst, t_op):
    # delta_variational_value's formula with scipy's logsumexp
    work = _DeltaWork(inst.mu, inst.states, inst.nu, inst.c)
    log_t = logm_psd(t_op.entries)
    term1 = float(scipy.special.logsumexp(work.log_mu + work.c * work.traces(log_t)))
    return term1 - work.c * math.log(float(np.trace(expm_herm(work.log_nu + log_t)).real))


def test_delta_variational_logsumexp_keeps_scipys_bits():
    rng = np.random.default_rng(43)
    cases = []
    for k, d in ((1, 2), (2, 2), (3, 2), (4, 3), (6, 2)):
        mu = rng.dirichlet(np.ones(k)) * 0.8
        cases.append((DeltaInstance(mu, _random_states(rng, k, d), random_psd(d, 7 + k), 1.7),
                      random_psd(d, 90 + k, min_eig_floor=0.1)))
    # uniform mu on equal states: the logits tie at the maximum
    s = random_density(2, 84, min_eig_floor=0.05)
    other = random_density(2, 85, min_eig_floor=0.05)
    for states in ([s, s], [s, s, other], [s, s, s]):
        inst = DeltaInstance(np.full(len(states), 0.25), states, random_psd(2, 9), 2.5)
        cases += [(inst, HermitianOperator(np.eye(2))), (inst, random_psd(2, 91, min_eig_floor=0.1))]
    for inst, t_op in cases:
        assert delta_variational_value(inst, t_op) == _variational_with_scipy(inst, t_op)
    # the kernel alone, on logits with ties, zeros and a wide range
    for _ in range(2000):
        a = np.round(rng.normal(0.0, 10.0 ** rng.uniform(-2, 2), rng.integers(1, 9)), 1)
        assert bn._logsumexp(a) == float(scipy.special.logsumexp(a))


def _kernel_grid_oracle(q, states, nu, c, resolution=64):
    """Exhaustive 2x2 stochastic-kernel grid for the channel functional."""
    stack = np.stack([s.entries for s in states])
    log_nu = logm_psd(nu.entries)
    best = -math.inf
    for i in range(resolution + 1):
        for j in range(resolution + 1):
            kernel = np.array(
                [[i / resolution, 1 - i / resolution], [j / resolution, 1 - j / resolution]]
            )
            joint = np.asarray(q)[:, None] * kernel
            p_u = joint.sum(axis=0)
            val = 0.0
            for u in range(2):
                if p_u[u] <= 1e-14:
                    continue
                sig = np.einsum("x,xjk->jk", joint[:, u] / p_u[u], stack)
                w = np.linalg.eigvalsh(sig)
                w = w[w > 1e-12]
                d_out = float(np.sum(w * np.log(w))) - float(
                    np.sum((sig * log_nu.T).real)
                )
                post = joint[:, u] / p_u[u]
                d_in = sum(
                    pi * math.log(pi / qi) for pi, qi in zip(post, q) if pi > 0
                )
                val += p_u[u] * (c * d_out - d_in)
            best = max(best, val)
    return best


def test_delta_star_orthogonal_against_kernel_grid():
    e0 = DensityMatrix(np.diag([1.0, 0.0]))
    e1 = DensityMatrix(np.diag([0.0, 1.0]))
    rho_y = DensityMatrix(np.eye(2) / 2)
    res = delta_star([0.5, 0.5], [e0, e1], rho_y, 2.0, 2)
    assert abs(res.value - LN2) < 1e-6
    oracle = _kernel_grid_oracle([0.5, 0.5], [e0, e1], rho_y, 2.0)
    assert res.value >= oracle - 1e-9
    assert abs(res.value - oracle) < 1e-3


def test_delta_star_constant_family():
    nu = random_density(2, 31, min_eig_floor=0.2)
    res = delta_star([0.5, 0.5], [nu, nu], nu, 1.5, 3)
    assert abs(res.value) < 1e-10


def test_delta_star_below_delta_and_stabilization():
    rng = np.random.default_rng(47)
    for _ in range(5):
        states = _random_states(rng, 2, 2)
        q = np.array([0.5, 0.5])
        avg = DensityMatrix(0.5 * (states[0].entries + states[1].entries))
        for c in (1.0, 2.0):
            star = delta_star(q, states, avg, c, 3)
            inst = DeltaInstance(q, states, HermitianOperator(avg.entries), c)
            big = delta(inst)
            assert star.value <= big.value + 1e-6
            star_small = delta_star(q, states, avg, c, 2)
            star_bigger = delta_star(q, states, avg, c, 4)
            assert star_small.value <= star.value + 1e-8
            assert abs(star_bigger.value - star.value) < 1e-6


def test_delta_star_posterior_package():
    src_states = [random_density(2, 61, min_eig_floor=0.1), random_density(2, 62, min_eig_floor=0.1)]
    q = np.array([0.4, 0.6])
    avg = DensityMatrix(0.4 * src_states[0].entries + 0.6 * src_states[1].entries)
    res = delta_star(q, src_states, avg, 1.5, 3)
    assert res.kernel.shape == (2, 3) and np.all(res.kernel >= 0.0)
    np.testing.assert_allclose(res.kernel.sum(axis=1), np.ones(2), atol=1e-12)
    np.testing.assert_array_equal(res.p_u, (q[:, None] * res.kernel).sum(axis=0))
    assert abs(res.p_u.sum() - 1.0) < 1e-12


def test_phi_matches_delta_star_at_reference():
    rng = np.random.default_rng(53)
    states = _random_states(rng, 2, 2)
    q = np.array([0.45, 0.55])
    rho_y = DensityMatrix(0.45 * states[0].entries + 0.55 * states[1].entries)
    a = phi(q, q, states, rho_y, 1.5, 3)
    b = delta_star(q, states, rho_y, 1.5, 3).value
    assert abs(a - b) < 1e-8
    nu = random_density(2, 3, min_eig_floor=0.2)
    assert abs(phi(q, q, [nu, nu], nu, 2.0, 3)) < 1e-10


def test_continuity_margin():
    rng = np.random.default_rng(59)
    states = _random_states(rng, 2, 2)
    q = np.array([0.5, 0.5])
    rho_y = DensityMatrix(0.5 * (states[0].entries + states[1].entries))
    near = np.array([0.5 + 1e-9, 0.5 - 1e-9])
    m = continuity_margin(near, q, states, rho_y, 1.5, 0.01, 3, multistarts=16)
    assert m.margin >= -1e-5
    shifted = np.array([0.5 * 1.2, 1.0 - 0.5 * 1.2])
    m2 = continuity_margin(shifted, q, states, rho_y, 1.5, 0.2, 3, multistarts=16)
    assert m2.margin >= -1e-5
    with pytest.raises(PreconditionError):
        continuity_margin([0.8, 0.2], q, states, rho_y, 1.5, 0.2, 3)


def test_typical_set_contract():
    q = np.array([0.5, 0.5])
    # threshold: n > 3*2*ln(2/delta)
    with pytest.raises(PreconditionError):
        typical_set(q, 4, 0.9)
    ts = typical_set(q, 8, 0.9)
    assert 0.0 < ts.eps_n < 1.0
    bound = (1.0 + ts.eps_n) * 0.5
    for seq in ts.members:
        counts = np.bincount(seq, minlength=2) / ts.n
        assert np.all(counts <= bound + 1e-12)
    assert ts.mass >= 1.0 - ts.delta - 1e-12
    # product weights are consistent
    member_mass = sum(0.5**8 for _ in ts.members)
    assert abs(member_mass - ts.mass) < 1e-12
    # a nearly vacuous delta keeps the threshold easy
    ts2 = typical_set(q, 8, 0.97)
    assert ts2.mass >= 0.03 - 1e-12


def test_single_letter_gap_constant_channel():
    nu = random_density(2, 71, min_eig_floor=0.2)
    report = single_letter_gap(
        np.array([0.5, 0.5]), [nu, nu], nu, 1.5, 8, 0.9, 3,
        multistarts=8, star_multistarts=16,
    )
    assert abs(report.first_order) < 1e-9
    assert report.second_order >= 0.0
    assert report.constants["margin"] >= 0.0


def test_single_letter_gap_lhs_matches_dense_product_states():
    # single_letter_gap holds the products over the last four sites as one
    # block and contracts the first site alone; delta on the explicitly built
    # product states must give the same left-hand side
    rng = np.random.default_rng(12)
    q = np.array([0.5, 0.5])
    states = _random_states(rng, 2, 2)
    nu = DensityMatrix(0.5 * (states[0].entries + states[1].entries))
    n, c = 5, 1.5
    report = single_letter_gap(q, states, nu, c, n, 0.9, 3, multistarts=8, star_multistarts=8)
    ts = typical_set(q, n, 0.9)
    big = [DensityMatrix(tensor_all([states[i] for i in seq])) for seq in ts.members]
    dense = delta(DeltaInstance(ts.mu_n, big, tensor_all([nu] * n), c), multistarts=8)
    assert abs(report.constants["lhs"] - dense.value) < 1e-10


def test_n_letter_delta_work_holds_no_state_stack_beyond_stack_bytes():
    # n = 8 has 256 product states of dimension 256 (256 MiB as one stack):
    # the work keeps the single-letter states and the products over the
    # last four sites, 16 x 16 x 16 entries
    n = 8
    states = [random_density(2, s, min_eig_floor=0.05) for s in (1, 2)]
    nu = random_density(2, 3, min_eig_floor=0.1)
    work = _DeltaWork(np.full(2**n, 1.0 / 2**n), states, nu, 1.5, n)
    stacks = [a for a in vars(work).values() if isinstance(a, np.ndarray) and a.ndim == 3]
    assert stacks and all(a.nbytes <= STACK_BYTES for a in stacks)
    assert work.block.shape == (16, 16, 16)
    # the work forms nu^n from the single-letter nu
    assert np.array_equal(work.nu_n.entries, tensor_all([nu] * n).entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_mix_and_traces_keep_the_bits_of_one_row(n):
    # binary X, qubits: the block holds min(n, 4) sites, so n = 5, 6 also
    # contract leading sites; every stack of 1..stack_step rows gives each
    # row the bits of a call on it alone
    rng = np.random.default_rng(40 + n)
    states = _random_states(rng, 2, 2)
    mu = rng.dirichlet(np.ones(2**n))
    mu[rng.permutation(2**n)[: 2**n // 3]] = 0.0
    work = _DeltaWork(mu, states, _random_states(rng, 1, 2, floor=0.1)[0], 1.5, n)
    assert work.m == min(n, 4)
    step = ht.stack_step(2**n)
    gammas = rng.dirichlet(np.ones(work.support.size), size=step)
    mats = rng.normal(size=(step, 2**n, 2**n, 2)) @ [1.0, 1.0j]
    mats = mats + mats.conj().swapaxes(-1, -2)
    one_mix = np.stack([work.mix(g) for g in gammas])
    one_traces = np.stack([work.traces(m) for m in mats])
    for size in range(1, step + 1):
        traced = work.traces(mats[:size])
        assert traced.flags.c_contiguous and traced.shape == (size, work.support.size)
        assert np.array_equal(traced, one_traces[:size])
        assert np.array_equal(work.mix(gammas[:size]), one_mix[:size])
    # the dense sum and traces over the n-letter product states
    seqs = np.arange(2**n)[:, None] // 2 ** np.arange(n)[::-1] % 2
    dense = np.stack([tensor_all([states[i] for i in seqs[x]]).entries for x in work.support])
    for r in (0, step - 1):
        want = np.einsum("x,xij->ij", gammas[r], dense)
        assert np.abs(one_mix[r] - want).max() <= 1e-13 * np.abs(want).max()
        want = np.einsum("xij,ji->x", dense, mats[r]).real
        assert np.abs(one_traces[r] - want).max() <= 1e-13 * np.abs(want).max()


def test_n_letter_delta_rejects_nu_whose_tensor_power_is_rank_deficient():
    # nu's smallest eigenvalue 1e-3 passes alone, but nu^5 has 1e-15 < 1e-10
    states = [random_density(2, s, min_eig_floor=0.05) for s in (1, 2)]
    nu = DensityMatrix(np.diag([1.0 - 1e-3, 1e-3]))
    _DeltaWork(np.full(2, 0.5), states, nu, 1.5)
    with pytest.raises(ValidationError, match="full rank"):
        _DeltaWork(np.full(2**5, 1.0 / 2**5), states, nu, 1.5, 5)
    with pytest.raises(ValidationError, match="full rank"):
        single_letter_gap(np.array([0.5, 0.5]), states, nu, 1.5, 5, 0.9, 3)


def _without_type_reduction(monkeypatch):
    init = _DeltaWork.__init__

    def run_every_start(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.types = None

    monkeypatch.setattr(_DeltaWork, "__init__", run_every_start)


def _gap_instances():
    """The single-letter suite's source and the product-states benchmark's
    family source (seed 1, pass 0), each with its average state as nu."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    family = wl.family_source(2, 2, wl.haar_unitary(wl.pass_rng(1, 0, 2), 2),
                              uniform_q=True, floor=0.02)
    suite = [random_density(2, s, min_eig_floor=0.02) for s in (84, 85)]
    return {"suite": (suite, DensityMatrix(0.5 * (suite[0].entries + suite[1].entries))),
            "family": (family.states, family.rho_y)}


def _gap_lhs_and_gamma(monkeypatch, states, nu, n):
    """single_letter_gap's lhs and the gamma of its Delta solve."""
    solved, solve = [], bn._solve_delta
    monkeypatch.setattr(bn, "_solve_delta", lambda *args: solved.append(solve(*args)) or solved[-1])
    report = single_letter_gap(np.array([0.5, 0.5]), states, nu, 1.5, n, 0.9, 3)
    assert report.constants["lhs"] == solved[0][0]
    return solved[0]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_type_class_reduction_keeps_single_letter_gap_bits(monkeypatch, n):
    # only vertex starts that a site permutation maps onto an earlier one are
    # dropped, so lhs and the best gamma keep the bits of a run of every start
    for states, nu in _gap_instances().values():
        with monkeypatch.context() as m:
            got = _gap_lhs_and_gamma(m, states, nu, n)
        with monkeypatch.context() as m:
            _without_type_reduction(m)
            want = _gap_lhs_and_gamma(m, states, nu, n)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


def _started(monkeypatch, mu, n):
    """Number of starts _solve_delta runs on mu at blocklength n: each start
    stops after its first evaluation, so each is one stacked row."""
    starts, rows = [], []
    draw = bn._delta_starts
    states = [random_density(2, s, min_eig_floor=0.05) for s in (1, 2)]
    work = _DeltaWork(mu, states, random_density(2, 3, min_eig_floor=0.1), 1.5, n)

    def first_evaluation(self, gammas):
        rows.extend(gammas)
        g = len(gammas)
        return np.zeros(g), (np.zeros((g, 1)), np.zeros((g, 1, 1)))

    with monkeypatch.context() as m:
        m.setattr(bn, "_delta_starts", lambda k, count: starts.extend(draw(k, count)) or starts)
        m.setattr(_DeltaWork, "objective_and_eig", first_evaluation)
        m.setattr(_DeltaWork, "fixed_point_step", lambda self, eig: [None] * len(eig[0]))
        bn._solve_delta(work, 32, cross_check=False)
    assert len(starts) == 32
    assert all(any(np.array_equal(g, s) for s in starts) for g in rows)
    return len(rows)


def _typical_mu(n):
    """The typical set of the uniform binary source at blocklength n, and
    its measure over all 2^n sequences, as single_letter_gap builds it."""
    ts = typical_set(np.array([0.5, 0.5]), n, 0.9)
    mu_n = np.zeros(2**n)
    mu_n[np.ravel_multi_index(np.asarray(ts.members).T, (2,) * n)] = ts.mu_n
    return ts, mu_n


def test_type_class_reduction_runs_one_vertex_per_class_only_on_class_constant_mu(monkeypatch):
    n = 7
    ts, mu_n = _typical_mu(n)
    # the first 31 support sequences are the vertex starts; no Dirichlet
    # start is left, and the vertices fall into 5 type classes
    classes = {tuple(sorted(seq)) for seq in ts.members[:31]}
    assert len(ts.members) == 126 and len(classes) == 5
    assert _started(monkeypatch, mu_n, n) == 1 + len(classes)
    # a Dirichlet mu, or the typical mu with one entry one ulp away
    rng = np.random.default_rng(5)
    assert _started(monkeypatch, rng.dirichlet(np.ones(2**n)), n) == 32
    nudged = mu_n.copy()
    i = np.flatnonzero(mu_n)[40]
    nudged[i] = np.nextafter(mu_n[i], 1.0)
    assert _started(monkeypatch, nudged, n) == 32
    # a support of 30 sequences leaves one Dirichlet start, which always runs
    ts5, mu5 = _typical_mu(5)
    classes5 = {tuple(sorted(seq)) for seq in ts5.members}
    assert _started(monkeypatch, mu5, 5) == 1 + len(classes5) + 1
    # at n = 1 every type class is one symbol, so every start runs
    assert _started(monkeypatch, np.full(2, 0.5), 1) == 32


def _sequential_step(work, w, v):
    """The fixed-point step of one start, as a run of one start at a time
    takes it: its own log, traces and kernel overlaps."""
    pos = w > SUPPORT_TOL
    log_w = np.where(pos, np.log(np.maximum(w, SUPPORT_TOL)), 0.0)
    scores = work.c * (work.traces((v * log_w) @ v.conj().T) - work.tr_lognu)
    if not np.all(pos):
        ker = v[:, ~pos]
        overlap = work.traces(ker @ ker.conj().T)
        scores = np.where(overlap > KERNEL_OVERLAP_TOL, -np.inf, scores)
    logits = work.log_mu + scores
    logits -= np.max(logits[np.isfinite(logits)])
    weights = np.exp(np.where(np.isfinite(logits), logits, -np.inf))
    total = weights.sum()
    return weights / total if total > 0.0 else None


def _sequential_solve(work, multistarts, step=_sequential_step):
    """_solve_delta's multistart without the grid cross-check, one start
    after another: the reference for the lock-step loop."""
    k = work.support.size
    starts = bn._delta_starts(k, multistarts)
    if work.types is not None:
        vertices = min(k, max(0, multistarts - 1))
        keep = set(np.unique(work.types[:vertices], return_index=True)[1] + 1)
        starts = [s for i, s in enumerate(starts) if not 1 <= i <= vertices or i in keep]
    best_val, best_gamma = -math.inf, None
    for gamma in starts:
        prev = -math.inf
        for _ in range(500):
            val, (w, v) = work.objective_and_eig(gamma)
            if val > best_val:
                best_val, best_gamma = val, gamma.copy()
            if abs(val - prev) < 1e-10:
                break
            prev = val
            gamma = step(work, w, v)
            if gamma is None:
                break
    return best_val, best_gamma


def _assert_same_bits(work, multistarts=32):
    got = bn._solve_delta(work, multistarts, cross_check=False)
    want = _sequential_solve(work, multistarts)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lock_step_delta_keeps_the_bits_of_one_start_at_a_time(n):
    rng = np.random.default_rng(60 + n)
    states = _random_states(rng, 2, 2)
    nu = DensityMatrix(0.5 * (states[0].entries + states[1].entries))
    # class-constant mu (the type-class filter drops vertex starts) and a
    # Dirichlet mu; at c = 100 several starts reach the best value, so the
    # first of them must win
    for mu in (np.full(2**n, 0.9 / 2**n), rng.dirichlet(np.ones(2**n)) * 0.9):
        for c in (1.2, 4.0, 100.0):
            _assert_same_bits(_DeltaWork(mu, states, nu, c, n))


def test_lock_step_delta_keeps_the_bits_on_a_rank_deficient_pair(monkeypatch):
    # orthogonal pure states: a vertex start's mixture has a kernel, so its
    # step takes the kernel-overlap branch
    states = [DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0]))]
    nu = DensityMatrix(np.eye(2) / 2)
    for n in (1, 2):
        work = _DeltaWork(np.full(2**n, 0.5**n), states, nu, 2.0, n)
        vertex = np.eye(2**n)[0]
        assert np.linalg.eigvalsh(work.mix(vertex))[0] <= SUPPORT_TOL
        _assert_same_bits(work)
    # weights that vanish stop a start.  They vanish only when every support
    # symbol overlaps the kernel, which takes a kernel of over 1000
    # dimensions, so the step of a mixture with a kernel is made to return
    # None on both sides
    real = _DeltaWork.fixed_point_step
    stops = []

    def stop_on_kernel(self, eig):
        out = [None if w[0] <= SUPPORT_TOL else s for w, s in zip(eig[0], real(self, eig))]
        stops.append(sum(s is None for s in out))
        return out

    monkeypatch.setattr(_DeltaWork, "fixed_point_step", stop_on_kernel)
    work = _DeltaWork(np.full(4, 0.25), states, nu, 2.0, 2)
    got = bn._solve_delta(work, 32, cross_check=False)
    want = _sequential_solve(work, 32, lambda wk, w, v: None if w[0] <= SUPPORT_TOL
                             else _sequential_step(wk, w, v))
    assert sum(stops) > 0
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def test_lock_step_delta_stacks_at_most_stack_step_rows(monkeypatch):
    rng = np.random.default_rng(66)
    states = _random_states(rng, 2, 2)
    nu = DensityMatrix(0.5 * (states[0].entries + states[1].entries))
    rows, evaluate = [], _DeltaWork.objective_and_eig
    monkeypatch.setattr(_DeltaWork, "objective_and_eig",
                        lambda self, gamma: rows.append(len(gamma)) or evaluate(self, gamma))
    for n, step in ((4, 16), (5, 4), (6, 1)):
        assert ht.stack_step(2**n) == step
        rows.clear()
        bn._solve_delta(_DeltaWork(rng.dirichlet(np.ones(2**n)), states, nu, 1.5, n), 32, False)
        assert max(rows) == step


def _random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def _concave_instances(count, seed=2121):
    """Delta works at c < 1: |X| 2-3, d 2-3, n 1-3, a sub-probability mu on
    every other instance, pure states on every other pair of instances, and
    nu either the average state mixed with 1/10 of the maximally mixed one or
    a random full-rank state."""
    rng = np.random.default_rng(seed)
    works = []
    for i in range(count):
        x, d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        n = int(rng.integers(1, 4)) if x * d <= 6 else int(rng.integers(1, 3))
        states = ([_random_pure(rng, d) for _ in range(x)] if i % 4 < 2
                  else _random_states(rng, x, d, floor=0.0))
        if i % 3:
            nu = DensityMatrix(0.9 * sum(s.entries for s in states) / x + 0.1 * np.eye(d) / d)
        else:
            nu = _random_states(rng, 1, d, floor=0.1)[0]
        mu = rng.dirichlet(np.ones(x**n)) * (float(rng.uniform(0.3, 1.0)) if i % 2 else 1.0)
        works.append(_DeltaWork(mu, states, nu, float(rng.uniform(0.05, 1.0)), n))
    return works


def test_gibbs_bound_stays_above_the_multistart_and_certifies_the_one_start(monkeypatch):
    # U(gamma) >= Delta at every iterate, so U is never below the value of
    # the 32-start fallback; every instance here closes the bound, which puts
    # the one-start value within 1e-12 of that value
    seen, gibbs = [], _DeltaWork.gibbs_bound
    monkeypatch.setattr(_DeltaWork, "gibbs_bound",
                        lambda self, gamma, logits: seen.append(gibbs(self, gamma, logits)) or seen[-1])
    works = _concave_instances(64)
    assert sum(w.n == 3 for w in works) >= 8 and sum(w.mu_s.sum() < 0.99 for w in works) >= 20
    for work in works:
        seen.clear()
        got = bn._solve_delta(work, 32, cross_check=False)
        assert seen[-1] - got[0] <= 1e-12 * max(1.0, abs(seen[-1]))
        want = bn._lock_step(work, 32)
        assert all(u >= want[0] - 1e-12 for u in seen)
        assert got[0] >= want[0] - 1e-12


def test_certified_delta_evaluates_one_start_only(monkeypatch):
    rows, evaluate = [], _DeltaWork.objective_and_eig
    monkeypatch.setattr(_DeltaWork, "objective_and_eig",
                        lambda self, gamma: rows.append(len(gamma)) or evaluate(self, gamma))
    for work in _concave_instances(6, seed=7):
        rows.clear()
        bn._solve_delta(work, 32, cross_check=False)
        assert rows and set(rows) == {1} and len(rows) < 50
    # the grid still cross-checks a support of at most 3 symbols
    rng = np.random.default_rng(8)
    states = _random_states(rng, 2, 2)
    rows.clear()
    bn._solve_delta(_DeltaWork(np.array([0.3, 0.5]), states, states[0], 0.7), 32)
    assert set(rows[:-1]) == {1} and rows[-1] == 65


@pytest.mark.parametrize("n", [1, 2])
def test_delta_without_a_closed_bound_keeps_the_multistart_bits(monkeypatch, n):
    rng = np.random.default_rng(90 + n)
    states = _random_states(rng, 2, 2)
    nu = DensityMatrix(0.5 * (states[0].entries + states[1].entries))
    mu = rng.dirichlet(np.ones(2**n)) * 0.8
    # c = 1 runs the multistart as it is
    _assert_same_bits(_DeltaWork(mu, states, nu, 1.0, n))
    # a bound that stays 1 above the objective: its gap contracts towards 1,
    # so the start hands over within a few steps instead of at the step cap
    gibbs, closes = _DeltaWork.gibbs_bound, []
    monkeypatch.setattr(_DeltaWork, "gibbs_bound",
                        lambda self, gamma, logits: closes.append(1) or gibbs(self, gamma, logits) + 1.0)
    _assert_same_bits(_DeltaWork(mu, states, nu, 0.5, n))
    assert 1 < len(closes) < 10


def test_slow_gibbs_gap_hands_over_to_the_multistart_early(monkeypatch):
    # pure states at c = 0.995: the gap contracts by about 0.96 a step and is
    # still 4e-8 at step 500, so the one start cannot certify the value; it
    # hands over once its observed contraction cannot close the gap in time
    rng = np.random.default_rng(50400)
    states = [_random_pure(rng, 3) for _ in range(2)]
    nu = DensityMatrix(0.9 * (states[0].entries + states[1].entries) / 2 + 0.1 * np.eye(3) / 3)
    work = _DeltaWork(rng.dirichlet(np.ones(4)), states, nu, 0.995, 2)
    rows, evaluate = [], _DeltaWork.objective_and_eig
    monkeypatch.setattr(_DeltaWork, "objective_and_eig",
                        lambda self, gamma: rows.append(len(gamma)) or evaluate(self, gamma))
    got = bn._solve_delta(work, 32, cross_check=False)
    certified_rows = len(rows)
    want = bn._lock_step(work, 32)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    # the lock-step ran once in each call; before it, a handful of one-row
    # steps, where running into the 500-step cap took 500
    one_start_rows = sum(rows[:certified_rows]) - sum(rows[certified_rows:])
    assert 1 < one_start_rows < 30


def test_single_letter_gap_guards():
    q3 = np.ones(3) / 3
    states3 = [random_density(2, s, min_eig_floor=0.1) for s in (1, 2, 3)]
    with pytest.raises(ResourceCapError):
        single_letter_gap(q3, states3, states3[0], 1.5, 6, 0.9, 4)
    with pytest.raises(PreconditionError):
        single_letter_gap(np.array([0.5, 0.5]), states3[:2], states3[0], 1.5, 4, 0.9, 3)


# values of the multistart mirror ascent recorded before its starts were
# batched; every start must still follow its own trajectory.  Entries below
# 1e-13 are rounding zeros (one message, or a uniform start, carries no
# information).  delta_star and phi take binary sources from the concave
# envelope, so the tables pin the ascent itself, the path of |X| >= 3.
_PINNED_DELTA_STAR = {
    # (source, c, u_size, multistarts): (default max_iter, max_iter=3)
    ("example", 1.0, 1, 1): (1.1102230246251565e-16, 1.1102230246251565e-16),
    ("example", 1.0, 1, 16): (1.1102230246251565e-16, 1.1102230246251565e-16),
    ("example", 1.0, 3, 1): (0.0, 0.0),
    ("example", 1.0, 3, 16): (0.0, 0.0),
    ("example", 2.5, 1, 1): (2.7755575615628914e-16, 2.7755575615628914e-16),
    ("example", 2.5, 1, 16): (2.7755575615628914e-16, 2.7755575615628914e-16),
    ("example", 2.5, 3, 1): (0.0, 0.0),
    ("example", 2.5, 3, 16): (0.0, 0.0),
    ("example", 16.0, 1, 1): (1.7763568394002505e-15, 1.7763568394002505e-15),
    ("example", 16.0, 1, 16): (1.7763568394002505e-15, 1.7763568394002505e-15),
    ("example", 16.0, 3, 1): (0.0, 0.0),
    ("example", 16.0, 3, 16): (2.5943249635765597, 2.5943249635622223),
    ("2x3", 1.0, 1, 1): (1.1102230246251565e-16, 1.1102230246251565e-16),
    ("2x3", 1.0, 1, 16): (1.4988010832439612e-16, 1.4988010832439612e-16),
    ("2x3", 1.0, 3, 1): (1.1102230246251565e-16, 1.1102230246251565e-16),
    ("2x3", 1.0, 3, 16): (1.1102230246251565e-16, 1.1102230246251565e-16),
    ("2x3", 2.5, 1, 1): (2.7755575615628914e-16, 2.7755575615628914e-16),
    ("2x3", 2.5, 1, 16): (3.164135620181696e-16, 3.164135620181696e-16),
    ("2x3", 2.5, 3, 1): (2.7755575615628914e-16, 2.7755575615628914e-16),
    ("2x3", 2.5, 3, 16): (0.4573593313596577, 0.4573592003772898),
    ("2x3", 16.0, 1, 1): (1.7763568394002505e-15, 1.7763568394002505e-15),
    ("2x3", 16.0, 1, 16): (1.815214645262131e-15, 1.815214645262131e-15),
    ("2x3", 16.0, 3, 1): (1.7763568394002505e-15, 1.7763568394002505e-15),
    ("2x3", 16.0, 3, 16): (6.41434249144526, 6.41434249144526),
}

_PINNED_PHI = {  # phi at p_tilde = (0.42, 0.58), u_size 3, 16 starts
    ("example", 2.5): -0.0008769848939506884,
    ("example", 16.0): 2.677311817149127,
    ("2x3", 2.5): 0.49571441483684503,
    ("2x3", 16.0): 6.8937916353268935,
}


def _givens(i, j, t):
    g = np.eye(3)
    g[i, i] = g[j, j] = math.cos(t)
    g[i, j], g[j, i] = -math.sin(t), math.sin(t)
    return g


def _pinned_source(name):
    """(q, states, average output) of the example model or a 2x3 source."""
    if name == "example":
        src, _ = load_model(Path(__file__).resolve().parents[1] / "model.example.json")
        return src.q_x, src.states, src.rho_y
    rot = _givens(0, 1, 0.4) @ _givens(1, 2, 0.7)
    q = np.array([0.35, 0.65])
    states = [DensityMatrix(rot @ np.diag(w) @ rot.T)
              for w in ([0.9, 0.07, 0.03], [0.04, 0.16, 0.8])]
    avg = DensityMatrix(q[0] * states[0].entries + q[1] * states[1].entries)
    return q, states, avg


def _agrees(got, want):
    return abs(got - want) <= 1e-12 * abs(want) + 1e-13


@pytest.mark.parametrize("name", ["example", "2x3"])
def test_delta_star_matches_pinned_values(name):
    q, states, avg = _pinned_source(name)
    for (src, c, u_size, starts), wants in _PINNED_DELTA_STAR.items():
        if src != name:
            continue
        work = _ChannelWork(q, q, states, avg, c)
        # max_iter=3 stops some starts on the iteration cap while others are
        # still inside their line search
        for max_iter, want in zip((2000, 3), wants):
            got = bn._ascend_channel(work, u_size, starts, max_iter)[0]
            assert _agrees(got, want), (c, u_size, starts, max_iter, got, want)
        if starts == 16:
            assert delta_star(q, states, avg, c, u_size).value >= wants[0] - 1e-12
    p_tilde = np.array([0.42, 0.58])
    for c in (2.5, 16.0):
        got = bn._ascend_channel(_ChannelWork(p_tilde, q, states, avg, c), 3, 16, 2000)[0]
        assert _agrees(got, _PINNED_PHI[name, c]), (c, got)
        assert phi(p_tilde, q, states, avg, c, 3) >= _PINNED_PHI[name, c] - 1e-12


def _random_binary_source(rng):
    """(q, states, average output, a random full-rank reference) with
    q(0) in [0.05, 0.95], output dimension 2 or 3 and eigenvalue floor 0, 0.02
    or 0.05."""
    d = int(rng.integers(2, 4))
    floor = float(rng.choice([0.0, 0.02, 0.05]))
    states = _random_states(rng, 2, d, floor)
    q0 = float(rng.uniform(0.05, 0.95))
    q = np.array([q0, 1.0 - q0])
    avg = DensityMatrix(q0 * states[0].entries + (1.0 - q0) * states[1].entries)
    nu = random_density(d, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
    return q, states, avg, nu


def test_binary_envelope_never_below_the_ascent():
    # the envelope is exact up to its 1e-13 zoom and a 64-start ascent is a
    # lower estimate, so the envelope must never fall below it.  The 100
    # sources take turns: delta_star or phi, against the average output or
    # a random full-rank reference
    rng = np.random.default_rng(1905)
    for i in range(100):
        q, states, avg, nu = _random_binary_source(rng)
        ref = avg if i % 2 else nu
        p_tilde = np.clip(q * rng.uniform(0.8, 1.2, 2), 0.01, None)
        p_tilde /= p_tilde.sum()
        for c in (1.0, 1.5, 3.0, 7.0, 20.0, 100.0):
            if i % 4 < 2:
                envelope = delta_star(q, states, ref, c, 3).value
                work = _ChannelWork(q, q, states, ref, c)
            else:
                envelope = phi(p_tilde, q, states, ref, c, 3)
                work = _ChannelWork(p_tilde, q, states, ref, c)
            ascent = bn._ascend_channel(work, 3, 64, 2000)[0]
            assert envelope >= ascent - 1e-12, (i, c, envelope, ascent)


def test_binary_envelope_does_not_depend_on_u_size():
    rng = np.random.default_rng(11)
    for _ in range(5):
        q, states, avg, nu = _random_binary_source(rng)
        for c in (1.5, 7.0):
            for ref in (avg, nu):
                two, three, four = (delta_star(q, states, ref, c, u) for u in (2, 3, 4))
                assert two.value == three.value == four.value
                assert np.array_equal(four.kernel, np.pad(two.kernel, [(0, 0), (0, 2)]))


def test_binary_envelope_on_orthogonal_pure_states():
    e0 = DensityMatrix(np.diag([1.0, 0.0]))
    e1 = DensityMatrix(np.diag([0.0, 1.0]))
    mixed = DensityMatrix(np.eye(2) / 2)
    res = delta_star([0.5, 0.5], [e0, e1], mixed, 2.0, 2)
    assert abs(res.value - LN2) < 1e-12
    # one message per input, U = 0 carrying X = 1
    np.testing.assert_array_equal(res.kernel, [[0.0, 1.0], [1.0, 0.0]])


def test_channel_functionals_reject_bad_arguments():
    q, states, avg = _pinned_source("example")
    for bad_c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            delta_star(q, states, avg, bad_c, 3)
        with pytest.raises(DomainError):
            phi(q, q, states, avg, bad_c, 3)
    with pytest.raises(DomainError):
        delta_star(q, states, avg, 1.5, 0)
    for starts in (0, -2):
        with pytest.raises(DomainError):
            delta_star(q, states, avg, 1.5, 3, multistarts=starts)
        with pytest.raises(DomainError):
            phi(q, q, states, avg, 1.5, 3, multistarts=starts)


def test_batched_channel_evaluation_matches_one_kernel_at_a_time():
    q, states, avg = _pinned_source("2x3")
    work = _ChannelWork(q, q, states, avg, 2.5)
    kernels = np.random.default_rng(3).dirichlet(np.full(4, 0.4), size=(9, 2))
    kernels[[2, 5], :, 1] = 0.0  # a message no input uses
    kernels /= kernels.sum(axis=2, keepdims=True)
    values, grads = work.evaluate(kernels)
    for s in range(len(kernels)):
        value, grad = work.evaluate(kernels[s:s + 1])
        assert value[0] == values[s]
        assert np.array_equal(grad[0], grads[s])


def test_channel_value_counts_eigenvalues_below_the_support_cut():
    # one message: its posterior is the measure, diag(t, 1 - t) with t in (0, 1e-12]
    t = 5e-13
    states = [DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0]))]
    nu = HermitianOperator(np.eye(2) / 2)
    q = np.array([t, 1.0 - t])
    work = _ChannelWork(q, q, states, nu, 2.0)
    value = float(work.evaluate(np.ones((1, 2, 1)))[0][0])
    want = 2.0 * (LN2 + t * math.log(t) + (1.0 - t) * math.log1p(-t))
    assert abs(value - want) <= 1e-15
    # Delta's objective at gamma = q on mu = q: c D(sigma || nu), the same sum
    delta_work = _DeltaWork(q, states, nu, 2.0)
    assert abs(float(delta_work.objective_and_eig(q)[0]) - want) <= 1e-15


def _einsum_channel_evaluate(measure, reference, states, nu, c, kernels):
    """Values and gradients of the channel functional, coded with their own
    einsums, eigh and logs apart from ``_DeltaWork``: the reference of
    ``_ChannelWork.evaluate``.  Also returns, per
    kernel and message, the smallest eigenvalue of the posterior's mixture
    above ``SUPPORT_TOL`` (1 for an unused message)."""
    stack = np.stack([s.entries for s in states])
    log_nu = logm_psd(nu.entries)
    tr_lognu = np.einsum("xjk,kj->x", stack, log_nu).real
    joint = measure[None, :, None] * kernels
    p_u = joint.sum(axis=1)
    active = p_u > 1e-14
    cols = joint.transpose(1, 0, 2)[:, active]
    mass = p_u[active]
    sig = np.einsum("xp,xjk->pjk", cols, stack) / mass[:, None, None]
    w, v = np.linalg.eigh(sig)
    log_w = np.where(w > SUPPORT_TOL, np.log(np.maximum(w, SUPPORT_TOL)), 0.0)
    log_sig = (v * log_w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    d_out = (np.sum(w * np.log(np.where(w > 0.0, w, 1.0)), axis=1)
             - np.einsum("pjk,kj->p", sig, log_nu).real)
    post = cols / mass
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(post > 0.0, post * np.log(np.maximum(post, 1e-300) / reference[:, None]), 0.0)
        ratio = np.where(cols > 0.0, np.log(np.maximum(cols, 1e-300) / (mass * reference[:, None])), 0.0)
    per_message = np.full(active.shape, -0.0)
    per_message[active] = mass * (c * d_out - terms.sum(axis=0))
    scores = np.einsum("xjk,pkj->xp", stack, log_sig).real
    grads = np.zeros_like(kernels)
    grads.transpose(1, 0, 2)[:, active] = c * (scores - tr_lognu[:, None]) - ratio
    smallest = np.ones(active.shape)
    smallest[active] = np.min(np.where(w > SUPPORT_TOL, w, 1.0), axis=1)
    return per_message.sum(axis=1), grads, smallest


def _einsum_envelope_f(reference, states, nu, c, t):
    """The binary envelope's f(t), coded with its own einsums apart from
    ``_DeltaWork``: the reference of the envelope's f."""
    stack = np.stack([s.entries for s in states])
    tr_lognu = np.einsum("xjk,kj->x", stack, logm_psd(nu.entries)).real
    g = np.stack([t, 1.0 - t], axis=1)
    w = np.linalg.eigvalsh(np.einsum("gx,xjk->gjk", g, stack))
    return (c * (np.sum(w * np.log(np.where(w > 0.0, w, 1.0)), axis=1) - g @ tr_lognu)
            - np.sum(g * np.log(np.where(g > 0.0, g, 1.0) / reference), axis=1))


def test_channel_functional_matches_an_einsum_reference():
    # 200 instances: |X| 2-4, d 2-3, 2-4 messages, c up to 8, pure states on
    # every third, p_tilde != q (phi's case) on every other one.  The two
    # codes round the mixtures differently, so two slacks follow the
    # conditioning: a zero eigenvalue of a mixture of pure states rounds to a
    # few ulps either way, and each adds up to c |eps ln eps| < 1e-14 c to the
    # value; tr[rho_x ln sigma] moves by about eps ln(1/lambda) / lambda,
    # lambda the smallest eigenvalue above the support cut, as its eigenvector
    # is fixed only to eps / lambda against the cut ones
    rng = np.random.default_rng(2517)
    for i in range(200):
        x, d, u = (int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        states = ([_random_pure(rng, d) for _ in range(x)] if i % 3 == 0
                  else _random_states(rng, x, d, floor=0.0))
        q = rng.dirichlet(np.ones(x))
        measure = rng.dirichlet(np.ones(x)) if i % 2 else q
        nu = _random_states(rng, 1, d, floor=0.05)[0]
        c = float(rng.uniform(0.1, 8.0))
        kernels = rng.dirichlet(np.full(u, 0.5), size=(5, x))
        kernels[1, :, 0] = 0.0  # a message no input uses
        kernels[2, 0] = np.eye(u)[0]  # posteriors with zero entries
        kernels /= kernels.sum(axis=2, keepdims=True)
        values, grads = _ChannelWork(measure, q, states, nu, c).evaluate(kernels)
        want_values, want_grads, smallest = _einsum_channel_evaluate(measure, q, states, nu, c, kernels)
        slack = 1e-14 * c * d if i % 3 == 0 else 0.0
        assert np.all(np.abs(values - want_values) <= 1e-14 * np.maximum(1.0, np.abs(want_values)) + slack)
        lam = smallest[:, None, :]
        tol = 1e-12 * np.maximum(1.0, np.abs(want_grads)) + 1e-15 * (1.0 - np.log(lam)) / lam
        assert np.all(np.abs(grads - want_grads) <= tol)
        if x == 2:
            t = np.append(np.linspace(0.0, 1.0, 33), q[0])
            g = np.stack([t, 1.0 - t], axis=1)
            delta = _DeltaWork(q, states, nu, c)
            sigma = delta.mix(g)
            f = delta.objective(g, sigma, np.linalg.eigvalsh(sigma))
            want = _einsum_envelope_f(q, states, nu, c, t)
            assert np.all(np.abs(f - want) <= 1e-14 * np.maximum(1.0, np.abs(want)) + slack)


def test_channel_functionals_take_deltas_input_domain(tmp_path):
    # delta_star and phi reject the references Delta rejects, with its errors
    q, states, _ = _pinned_source("example")
    for nu, error in ((DensityMatrix(np.eye(3) / 3), DimensionMismatchError),
                      (DensityMatrix(np.diag([1.0 - 5e-11, 5e-11])), ValidationError)):
        with pytest.raises(error):
            DeltaInstance(q, states, nu, 2.0)
        with pytest.raises(error):
            delta_star(q, states, nu, 2.0, 3)
        with pytest.raises(error):
            phi(q, q, states, nu, 2.0, 3)
    # the command line exits 2 on an average output that Delta rejects
    src = CQSource(["0", "1"], [0.5, 0.5], [DensityMatrix(np.diag([1.0, 0.0])),
                                            DensityMatrix(np.diag([1.0 - 1e-10, 1e-10]))])
    save_model(tmp_path / "m.json", src)
    assert main(["delta-star", "--c", "2.0", "--nu", "avg", "--model", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "r.txt")]) == 2


@pytest.mark.parametrize("k, n", [(2, 2), (2, 5), (3, 2), (3, 4), (4, 3)])
def test_type_class_labels_follow_the_sorted_rows(k, n):
    # the labels of a class-constant mu are those of np.unique over the
    # sorted symbol rows, first symbol most significant
    rng = np.random.default_rng(k * 10 + n)
    seqs = np.arange(k**n)[:, None] // k ** np.arange(n)[::-1] % k
    # a function of the sorted symbols, so constant on every class to the bit
    mu = np.exp(np.sort(seqs, axis=1) @ rng.normal(size=n))
    mu /= mu.sum()
    work = _DeltaWork(mu, _random_states(rng, k, 2), _random_states(rng, 1, 2, floor=0.1)[0], 1.5, n)
    _, want = np.unique(np.sort(seqs, axis=1), axis=0, return_inverse=True)
    assert np.array_equal(work.types, want.ravel())
