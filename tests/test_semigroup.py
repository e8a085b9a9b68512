import math

import numpy as np
import pytest

from cqbounds import (
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    HermitianOperator,
    PreconditionError,
    check_alt,
    check_reverse_alt,
    check_reverse_holder,
    check_rhc,
    psi_map,
    psi_map_sites,
    random_density,
    random_hermitian,
    random_psd,
    rhc_time_threshold,
    schatten_norm,
    tensor,
    tensor_depolarize,
    weighted_lp_norm,
)
from cqbounds import _linalg as la


def _sigma(seed=5, dim=2, floor=0.1):
    return random_density(dim, seed, min_eig_floor=floor)


def _heisenberg(x, t, sigma):
    """The depolarizing map e^-t X + (1-e^-t) tr(sigma X) Id: psi_map at gamma = 1."""
    return psi_map(x, t, 1.0, sigma)


def _schrodinger(rho, t, sigma):
    """Its dual e^-t rho + (1-e^-t) sigma, which fixes sigma."""
    return math.exp(-t) * rho.entries + (1.0 - math.exp(-t)) * sigma.entries


def test_weighted_norm_identity_and_linear_case():
    sigma = random_density(3, 3, min_eig_floor=0.05)
    eye = HermitianOperator(np.eye(3))
    for p in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        assert abs(weighted_lp_norm(eye, p, sigma) - 1.0) < 1e-12
    x = random_psd(3, 8)
    expected = float(np.trace(sigma.entries @ x.entries).real)
    assert abs(weighted_lp_norm(x, 1.0, sigma) - expected) < 1e-12


def test_weighted_norm_monotone_in_p():
    rng = np.random.default_rng(10)
    for _ in range(40):
        sigma = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
        x = random_psd(2, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
        vals = [weighted_lp_norm(x, p, sigma) for p in (-1.0, -0.5, 0.5, 0.9, 1.0, 2.0)]
        assert all(vals[i] <= vals[i + 1] + 1e-10 for i in range(len(vals) - 1))


def test_weighted_norm_errors():
    sigma = random_density(2, 3, min_eig_floor=0.1)
    with pytest.raises(DomainError):
        weighted_lp_norm(HermitianOperator(np.eye(2)), 0.0, sigma)
    singular = HermitianOperator(np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        weighted_lp_norm(singular, -1.0, sigma)


def test_depolarize_heisenberg_contract():
    sigma = _sigma()
    x = random_hermitian(2, 21)
    np.testing.assert_allclose(_heisenberg(x, 0.0, sigma).entries, x.entries)
    mean = float(np.trace(sigma.entries @ x.entries).real)
    far = _heisenberg(x, 50.0, sigma)
    assert np.max(np.abs(far.entries - mean * np.eye(2))) < 1e-15
    eye = HermitianOperator(np.eye(2))
    np.testing.assert_allclose(_heisenberg(eye, 0.7, sigma).entries, np.eye(2))
    with pytest.raises(DomainError):
        _heisenberg(x, -0.1, sigma)


def test_semigroup_law_and_duality():
    sigma = _sigma()
    rng = np.random.default_rng(2)
    for t in (0.1, 0.5, 1.0):
        for s in (0.1, 0.5, 1.0):
            x = random_hermitian(2, int(rng.integers(0, 2**31)))
            once = _heisenberg(x, t + s, sigma)
            twice = _heisenberg(_heisenberg(x, s, sigma), t, sigma)
            assert np.max(np.abs(once.entries - twice.entries)) <= 1e-12
    for _ in range(1000):
        x = random_hermitian(2, int(rng.integers(0, 2**31)))
        rho = random_density(2, int(rng.integers(0, 2**31)))
        t = float(rng.uniform(0.0, 2.0))
        lhs = np.trace(rho.entries @ _heisenberg(x, t, sigma).entries)
        rhs = np.trace(_schrodinger(rho, t, sigma) @ x.entries)
        assert abs(lhs - rhs) <= 1e-12


def test_tensor_depolarize_reductions():
    sigma = _sigma()
    x = random_hermitian(2, 40)
    one_site = tensor_depolarize(x, 0.4, [sigma])
    direct = _heisenberg(x, 0.4, sigma)
    np.testing.assert_allclose(one_site.entries, direct.entries, atol=1e-13)

    # product input factorizes sitewise
    y = random_hermitian(2, 41)
    sig2 = random_density(2, 42, min_eig_floor=0.1)
    joint = tensor(x, y)
    moved = tensor_depolarize(joint, 0.7, [sigma, sig2])
    fa = _heisenberg(x, 0.7, sigma)
    fb = _heisenberg(y, 0.7, sig2)
    np.testing.assert_allclose(moved.entries, np.kron(fa.entries, fb.entries), atol=1e-12)

    # unitality on three sites
    eye8 = HermitianOperator(np.eye(8), (2, 2, 2))
    states = [random_density(2, s, min_eig_floor=0.05) for s in (1, 2, 3)]
    np.testing.assert_allclose(
        tensor_depolarize(eye8, 0.9, states).entries, np.eye(8), atol=1e-13
    )


def test_tensor_depolarize_factorizes_over_unequal_site_dimensions():
    dims = (2, 3, 2)
    factors = [random_hermitian(d, 43 + k) for k, d in enumerate(dims)]
    states = [random_density(d, 46 + k, min_eig_floor=0.05) for k, d in enumerate(dims)]
    joint = tensor(tensor(factors[0], factors[1]), factors[2])
    moved = tensor_depolarize(joint, 0.6, states)
    sitewise = [_heisenberg(f, 0.6, s) for f, s in zip(factors, states)]
    want = np.kron(np.kron(sitewise[0].entries, sitewise[1].entries), sitewise[2].entries)
    np.testing.assert_allclose(moved.entries, want, atol=1e-12)

    # the middle site alone: tr(state_1 x_1) x_0 (x) Id_3 (x) x_2
    middle = la.site_contract(joint.entries, dims, 1, states[1].entries)
    mean = np.trace(states[1].entries @ factors[1].entries)
    want = mean * np.kron(np.kron(factors[0].entries, np.eye(3)), factors[2].entries)
    np.testing.assert_allclose(middle, want, atol=1e-12)


def test_psi_map_contract():
    rho_y = random_density(2, 50, min_eig_floor=0.1)
    t_op = random_psd(2, 51)
    np.testing.assert_allclose(psi_map(t_op, 0.0, 2.0, rho_y).entries, t_op.entries)
    # trace identity tr(rho Psi_t(T)) = (e^-t + gamma(1-e^-t)) tr(rho T)
    gamma, t = 1.7, 0.6
    moved = psi_map(t_op, t, gamma, rho_y)
    lhs = float(np.trace(rho_y.entries @ moved.entries).real)
    base = float(np.trace(rho_y.entries @ t_op.entries).real)
    factor = math.exp(-t) + gamma * (1.0 - math.exp(-t))
    assert abs(lhs - factor * base) < 1e-12
    with pytest.raises(DomainError):
        psi_map(t_op, 0.5, 0.9, rho_y)


def test_psi_map_sites_matches_tensor_factorization():
    rho_y = random_density(2, 52, min_eig_floor=0.1)
    a = random_psd(2, 53)
    b = random_psd(2, 54)
    joint = tensor(a, b)
    moved = psi_map_sites(joint, 0.5, 1.5, rho_y)
    fa = psi_map(a, 0.5, 1.5, rho_y)
    fb = psi_map(b, 0.5, 1.5, rho_y)
    np.testing.assert_allclose(moved.entries, np.kron(fa.entries, fb.entries), atol=1e-12)


def test_psi_map_sites_at_gamma_one_is_tensor_depolarize_bitwise():
    rho_y = random_density(2, 63, min_eig_floor=0.1)
    for n in (1, 2, 3):
        t_op = HermitianOperator(random_psd(2**n, 64 + n).entries, (2,) * n)
        amplified = psi_map_sites(t_op, 0.7, 1.0, rho_y)
        plain = tensor_depolarize(t_op, 0.7, [rho_y] * n)
        assert np.array_equal(amplified.entries, plain.entries)
        assert amplified.subsystem_dims == plain.subsystem_dims == (2,) * n


def test_depolarizing_maps_reject_mismatched_dimensions():
    rho_y = random_density(2, 66, min_eig_floor=0.1)
    with pytest.raises(DimensionMismatchError):
        psi_map(random_psd(4, 67), 0.5, 1.5, rho_y)
    with pytest.raises(DimensionMismatchError):
        psi_map_sites(HermitianOperator(np.eye(9), (3, 3)), 0.5, 1.5, rho_y)
    with pytest.raises(DimensionMismatchError):
        tensor_depolarize(HermitianOperator(np.eye(4), (2, 2)), 0.5, [rho_y])


def test_check_rhc_contract():
    sigma = random_density(2, 60, min_eig_floor=0.1)
    eye = HermitianOperator(np.eye(2))
    m = check_rhc(eye, [sigma], -1.0, 0.5, math.log(4.0))
    assert abs(m.margin) < 1e-12
    g = random_psd(2, 61, min_eig_floor=0.2)
    m = check_rhc(g, [sigma], -1.0, 0.5, math.log(4.0))
    assert m.margin >= -1e-9
    assert abs(rhc_time_threshold(-1.0, 0.5) - math.log(4.0)) < 1e-15
    with pytest.raises(PreconditionError):
        check_rhc(g, [sigma], -1.0, 0.5, math.log(4.0) - 0.01)
    with pytest.raises(DomainError):
        check_rhc(g, [], -1.0, 0.5, math.log(4.0))


def test_check_rhc_three_sites():
    rng = np.random.default_rng(62)
    for _ in range(25):
        states = [
            random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
            for _ in range(3)
        ]
        g = random_psd(8, int(rng.integers(0, 2**31)), min_eig_floor=0.1)
        g = HermitianOperator(g.entries, (2, 2, 2))
        t0 = rhc_time_threshold(0.3, 0.7)
        assert check_rhc(g, states, 0.3, 0.7, t0).margin >= -1e-9


def test_check_alt_contract():
    a = random_psd(3, 70)
    b = random_psd(3, 71)
    assert abs(check_alt(a, b, 1.0).margin) < 1e-10
    diag_a = HermitianOperator(np.diag([0.3, 0.9, 1.4]))
    diag_b = HermitianOperator(np.diag([1.1, 0.2, 0.5]))
    assert abs(check_alt(diag_a, diag_b, 0.6).margin) < 1e-10
    rng = np.random.default_rng(72)
    for _ in range(50):
        a = random_psd(3, int(rng.integers(0, 2**31)))
        b = random_psd(3, int(rng.integers(0, 2**31)))
        assert check_alt(a, b, 0.5).margin >= -1e-10
    with pytest.raises(DomainError):
        check_alt(a, b, 1.2)


def test_check_reverse_holder_contract():
    sigma = random_density(2, 80, min_eig_floor=0.1)
    eye = HermitianOperator(np.eye(2))
    assert abs(check_reverse_holder(eye, eye, 0.5, sigma).margin) < 1e-12
    one = DensityMatrix(np.array([[1.0 + 0j]]))
    a1 = HermitianOperator([[1.7]])
    b1 = HermitianOperator([[0.4]])
    assert abs(check_reverse_holder(a1, b1, 0.5, one).margin) < 1e-12
    rng = np.random.default_rng(81)
    for _ in range(50):
        a = random_psd(2, int(rng.integers(0, 2**31)))
        b = random_psd(2, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
        sig = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
        assert check_reverse_holder(a, b, 0.5, sig).margin >= -1e-9
    with pytest.raises(DomainError):
        check_reverse_holder(a, b, 0.0, sigma)
    with pytest.raises(DomainError):
        check_reverse_holder(a, HermitianOperator(np.diag([1.0, 0.0])), 0.5, sigma)


def test_check_reverse_alt_contract():
    a = random_psd(2, 90)
    b = random_psd(2, 91)
    assert abs(check_reverse_alt(a, b, 1.0, math.inf, math.inf).margin) < 1e-10
    rng = np.random.default_rng(92)
    for _ in range(50):
        aa = random_psd(2, int(rng.integers(0, 2**31)))
        bb = random_psd(2, int(rng.integers(0, 2**31)))
        assert check_reverse_alt(aa, bb, 0.5, 4.0, 4.0).margin >= -1e-9
    # commuting diagonal pair against the scalar closed form
    da = np.array([0.5, 1.2])
    db = np.array([0.8, 0.3])
    r, ae, be = 0.5, 4.0, 4.0
    lhs = (
        float(np.sum(db**r * da**r)) ** r
        * float(np.sum(da ** (ae * (1 - r) / 2))) ** (2 * r / ae)
        * float(np.sum(db ** (be * (1 - r) / 2))) ** (2 * r / be)
    )
    rhs = float(np.sum(db * da)) ** r
    m = check_reverse_alt(HermitianOperator(np.diag(da)), HermitianOperator(np.diag(db)), r, ae, be)
    assert abs(m.lhs - lhs) < 1e-12 and abs(m.rhs - rhs) < 1e-12
    with pytest.raises(PreconditionError):
        check_reverse_alt(a, b, 0.5, 4.0, 5.0)


def test_schatten_norm():
    x = HermitianOperator(np.diag([3.0, -4.0]))
    assert abs(schatten_norm(x, 1.0) - 7.0) < 1e-12
    assert abs(schatten_norm(x, math.inf) - 4.0) < 1e-12
    assert abs(schatten_norm(x, 2.0) - 5.0) < 1e-12
