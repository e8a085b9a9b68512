import math

import numpy as np
import pytest

from cqbounds import (
    DensityMatrix,
    DomainError,
    HermitianOperator,
    fidelity,
    partial_trace,
    random_density,
    random_psd,
    relative_entropy,
    relative_entropy_variational_value,
    renyi_relative_entropy,
    tensor,
    von_neumann_entropy,
)
from cqbounds._linalg import entropy_psd, expm_herm, logm_psd
from cqbounds.operators import apply_kraus, random_channel_kraus

LN2 = math.log(2.0)

# closed-form oracles, frozen
H_QUARTER = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)  # 0.5623351446188083
KL_DIAG = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)  # 0.130812035941137


def _bell():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    return DensityMatrix(np.outer(vec, vec.conj()), (2, 2))


def _mutual_information(rho_ab):
    """I(A;B) = D(rho_AB || rho_A x rho_B) of a bipartite state."""
    return relative_entropy(rho_ab, tensor(partial_trace(rho_ab, [0]), partial_trace(rho_ab, [1])))


def _conditional_entropy(rho_ab):
    """H(A|B) = -D(rho_AB || Id_A x rho_B) of a bipartite state."""
    eye_a = HermitianOperator(np.eye(rho_ab.subsystem_dims[0], dtype=complex))
    return -relative_entropy(rho_ab, tensor(eye_a, partial_trace(rho_ab, [1])))


def test_von_neumann_entropy_examples():
    pure = DensityMatrix(np.diag([1.0, 0.0]))
    assert von_neumann_entropy(pure) == 0.0
    mixed = von_neumann_entropy(DensityMatrix(np.eye(2) / 2))
    assert abs(mixed - LN2) < 1e-14
    skew = von_neumann_entropy(DensityMatrix(np.diag([0.75, 0.25])))
    assert abs(skew - H_QUARTER) < 1e-14


def test_von_neumann_entropy_is_the_spectral_entropy():
    states = [random_density(d, seed) for d in (1, 2, 3, 4) for seed in (30, 31)]
    states += [DensityMatrix(np.diag([1.0, 0.0])), _bell()]
    for rho in states:
        assert von_neumann_entropy(rho) == max(0.0, entropy_psd(rho.entries))


def test_relative_entropy_examples():
    rho = random_density(3, 2, min_eig_floor=0.05)
    assert abs(relative_entropy(rho, rho)) < 1e-12
    d = relative_entropy(DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0])))
    assert math.isinf(d)
    d = relative_entropy(DensityMatrix(np.diag([0.75, 0.25])), DensityMatrix(np.eye(2) / 2))
    assert abs(d - KL_DIAG) < 1e-14


def test_renyi_examples():
    rho = random_density(2, 4, min_eig_floor=0.1)
    assert abs(renyi_relative_entropy(rho, rho, 0.5)) < 1e-12
    # commuting diagonal case matches the classical scalar formula
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    for alpha in (0.3, 0.5, 0.9):
        expected = math.log(float(np.sum(p**alpha * q ** (1 - alpha)))) / (alpha - 1.0)
        got = renyi_relative_entropy(
            DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)), alpha
        )
        assert abs(got - expected) < 1e-12
    with pytest.raises(DomainError):
        renyi_relative_entropy(rho, rho, 1.0)
    with pytest.raises(DomainError):
        renyi_relative_entropy(rho, rho, 0.0)


def test_renyi_converges_to_relative_entropy():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.1)
        sig = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.1)
        d = relative_entropy(rho, sig)
        da = renyi_relative_entropy(rho, sig, 0.999)
        assert abs(da - d) < 1e-3


def test_renyi_complement_formula():
    # -(1/p) ln tr[A^p B^(1-p)] on commuting inputs, which is
    # (1-p)/p times the Renyi relative entropy of order p
    a = np.array([0.2, 0.5])
    b = np.array([0.3, 0.4])
    p = 0.25
    expected = -math.log(float(np.sum(a**p * b ** (1 - p)))) / p
    d_p = renyi_relative_entropy(HermitianOperator(np.diag(a)), HermitianOperator(np.diag(b)), p)
    assert abs((1 - p) / p * d_p - expected) < 1e-12


def test_mutual_information_examples():
    a = random_density(2, 6, min_eig_floor=0.1)
    b = random_density(2, 7, min_eig_floor=0.1)
    prod = DensityMatrix(np.kron(a.entries, b.entries), (2, 2))
    assert abs(_mutual_information(prod)) < 1e-10

    # perfectly correlated classical bit: oracle by 4x4 diagonal evaluation
    corr = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
    expected = sum(
        p * math.log(p / (0.5 * 0.5)) for p in (0.5, 0.5)
    )
    assert abs(_mutual_information(corr) - expected) < 1e-12
    assert abs(expected - LN2) < 1e-15

    assert abs(_mutual_information(_bell()) - 2 * LN2) < 1e-9


def test_mutual_information_matches_entropy_combination():
    rng = np.random.default_rng(17)
    for _ in range(30):
        joint = random_density(4, int(rng.integers(0, 2**31)), min_eig_floor=0.01)
        joint = DensityMatrix(joint.entries, (2, 2))
        s_a = von_neumann_entropy(DensityMatrix(partial_trace(joint, [0]).entries))
        s_b = von_neumann_entropy(DensityMatrix(partial_trace(joint, [1]).entries))
        s_ab = von_neumann_entropy(joint)
        i = _mutual_information(joint)
        assert i >= -1e-12
        assert abs(i - (s_a + s_b - s_ab)) < 1e-8


def test_conditional_entropy_examples():
    a = random_density(2, 8, min_eig_floor=0.1)
    b = random_density(2, 9, min_eig_floor=0.1)
    prod = DensityMatrix(np.kron(a.entries, b.entries), (2, 2))
    expected = von_neumann_entropy(a)
    assert abs(_conditional_entropy(prod) - expected) < 1e-10

    assert abs(_conditional_entropy(_bell()) + LN2) < 1e-9

    copy = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
    assert abs(_conditional_entropy(copy)) < 1e-12


def test_fidelity():
    rho = random_density(3, 13, min_eig_floor=0.05)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10
    e0 = DensityMatrix(np.diag([1.0, 0.0]))
    e1 = DensityMatrix(np.diag([0.0, 1.0]))
    assert fidelity(e0, e1) < 1e-12
    p = np.array([0.6, 0.4])
    q = np.array([0.25, 0.75])
    expected = float(np.sum(np.sqrt(p * q))) ** 2
    got = fidelity(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
    assert abs(got - expected) < 1e-12


def test_variational_value_examples():
    rho = random_density(2, 14, min_eig_floor=0.1)
    sig = random_density(2, 15, min_eig_floor=0.1)
    # G = Id gives -ln tr sigma = 0 for a density
    v = relative_entropy_variational_value(rho, sig, HermitianOperator(np.eye(2)))
    assert abs(v) < 1e-12
    # the closed-form maximizer attains the relative entropy
    g_opt = HermitianOperator(expm_herm(logm_psd(rho.entries) - logm_psd(sig.entries)))
    d = relative_entropy(rho, sig)
    assert abs(relative_entropy_variational_value(rho, sig, g_opt) - d) < 1e-8
    with pytest.raises(DomainError):
        relative_entropy_variational_value(rho, sig, HermitianOperator(np.diag([1.0, 0.0])))


def test_variational_value_dominated_sweep():
    rng = np.random.default_rng(91)
    for _ in range(200):
        rho = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.02)
        sig = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.02)
        g = random_psd(2, int(rng.integers(0, 2**31)), min_eig_floor=0.05)
        d = relative_entropy(rho, sig)
        v = relative_entropy_variational_value(rho, sig, g)
        assert v <= d + 1e-9


def test_data_processing_small_sweep():
    rng = np.random.default_rng(55)
    for _ in range(60):
        rho = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.01)
        sig = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.01)
        kraus = random_channel_kraus(2, 2, 2, int(rng.integers(0, 2**31)))
        rho2 = DensityMatrix(apply_kraus(rho, kraus))
        sig2 = DensityMatrix(apply_kraus(sig, kraus))
        assert relative_entropy(rho2, sig2) <= relative_entropy(rho, sig) + 1e-8
        for alpha in (0.3, 0.5, 0.9):
            before = renyi_relative_entropy(rho, sig, alpha)
            after = renyi_relative_entropy(rho2, sig2, alpha)
            assert after <= before + 1e-8


def test_cq_copy_state_mutual_information_is_classical():
    rng = np.random.default_rng(77)
    for _ in range(20):
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        diag = np.zeros((4, 4))
        for x in range(2):
            for y in range(2):
                diag[2 * x + y, 2 * x + y] = joint[x, y]
        state = DensityMatrix(diag, (2, 2))
        px, py = joint.sum(axis=1), joint.sum(axis=0)
        classical = sum(
            joint[x, y] * math.log(joint[x, y] / (px[x] * py[y]))
            for x in range(2)
            for y in range(2)
            if joint[x, y] > 0
        )
        assert abs(_mutual_information(state) - classical) < 1e-9
