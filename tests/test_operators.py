import os
import subprocess
import sys

import numpy as np
import pytest

from cqbounds import (
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    HermitianOperator,
    ResourceCapError,
    ValidationError,
    partial_trace,
    random_density,
    tensor,
)
from cqbounds import _linalg as la
from cqbounds import operators as ops

_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(ops.__file__)))

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_tensor_identities():
    eye2 = HermitianOperator(np.eye(2))
    out = tensor(eye2, eye2)
    np.testing.assert_allclose(out.entries, np.eye(4))
    assert out.subsystem_dims == (2, 2)

    a = HermitianOperator(np.diag([1.0, 0.0]))
    b = HermitianOperator(np.diag([0.5, 0.5]))
    np.testing.assert_allclose(tensor(a, b).entries, np.diag([0.5, 0.5, 0.0, 0.0]))


def test_tensor_matches_kronecker_index_formula():
    # oracle: out[i*db+k, j*db+l] = a[i,j] * b[k,l]
    a, b = PAULI_X, PAULI_Z
    out = tensor(HermitianOperator(a), HermitianOperator(b)).entries
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert out[2 * i + k, 2 * j + l] == a[i, j] * b[k, l]
    assert out[0, 2] == 1.0 and out[1, 3] == -1.0


def test_partial_trace_product_state():
    rho_a = random_density(2, 11, min_eig_floor=0.1)
    rho_b = random_density(3, 12, min_eig_floor=0.05)
    joint = tensor(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, [0]).entries, rho_a.entries, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, [1]).entries, rho_b.entries, atol=1e-12)


def test_partial_trace_bell_state():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    bell = HermitianOperator(np.outer(vec, vec.conj()), (2, 2))
    # oracle: explicit 4x4 summation over the traced index
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[i, j] = sum(bell.entries[2 * i + k, 2 * j + k] for k in range(2))
    reduced = partial_trace(bell, [0])
    np.testing.assert_allclose(reduced.entries, expected, atol=1e-14)
    np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_total_and_errors():
    rho = random_density(4, 5)
    total = partial_trace(HermitianOperator(rho.entries, (2, 2)), [0, 1])
    assert total.dim == 4
    scalar = np.trace(rho.entries)
    one_site = partial_trace(HermitianOperator(rho.entries, (4,)), [0])
    np.testing.assert_allclose(np.trace(one_site.entries), scalar)
    with pytest.raises(DimensionMismatchError):
        partial_trace(HermitianOperator(rho.entries, (2, 2)), [2])
    with pytest.raises(DimensionMismatchError):
        partial_trace(HermitianOperator(rho.entries, (2, 2)), [])


def test_matrix_function_examples():
    zero = np.zeros((3, 3), dtype=complex)
    np.testing.assert_allclose(la.expm_herm(zero), np.eye(3))
    diag = np.diag([np.e, np.e**2]).astype(complex)
    np.testing.assert_allclose(la.logm_psd(diag), np.diag([1.0, 2.0]), atol=1e-14)
    np.testing.assert_allclose(
        la.powm_psd(np.diag([4.0, 9.0]).astype(complex), 0.5), np.diag([2.0, 3.0]), atol=1e-14
    )


def test_matrix_function_roundtrip_and_errors():
    rho = random_density(4, 9, min_eig_floor=0.05)
    back = la.expm_herm(la.logm_psd(rho.entries))
    assert np.max(np.abs(back - rho.entries)) <= 1e-8
    with pytest.raises(DomainError):
        la.logm_psd(np.zeros((2, 2), dtype=complex))
    with pytest.raises(DomainError):
        la.powm_psd(np.diag([1.0, -0.5]).astype(complex), 0.5)
    singular = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        la.powm_psd(singular, -1.0, restricted=False)
    np.testing.assert_allclose(la.powm_psd(singular, -1.0), np.diag([1.0, 0.0]))


def test_random_density_contract():
    one = random_density(1, 3)
    np.testing.assert_allclose(one.entries, [[1.0]])
    np.testing.assert_array_equal(
        random_density(4, 77).entries, random_density(4, 77).entries
    )
    rho = random_density(4, 21, min_eig_floor=0.05)
    assert np.linalg.eigvalsh(rho.entries)[0] >= 0.05 - 1e-12
    with pytest.raises(DomainError):
        random_density(4, 1, min_eig_floor=0.25)


def test_density_matrix_invariants():
    for seed in range(25):
        rho = random_density(3, seed)
        assert abs(np.trace(rho.entries).real - 1.0) <= 1e-10
        assert rho.min_eig >= 0.0
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_hermiticity_enforcement():
    # deviations within tolerance are symmetrized, larger ones rejected
    base = np.array([[1.0, 0.5 + 5e-11j], [0.5 - 0j, 1.0]])
    op = HermitianOperator(base)
    np.testing.assert_allclose(op.entries, op.entries.conj().T)
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[1.0, 1e-6j], [0.0, 1.0]]))


def test_tensor_roundtrip_factors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.1)
        b = random_density(2, int(rng.integers(0, 2**31)), min_eig_floor=0.1)
        joint = DensityMatrix(tensor(a, b))
        np.testing.assert_allclose(partial_trace(joint, [0]).entries, a.entries, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, [1]).entries, b.entries, atol=1e-12)


def test_dimension_cap():
    with pytest.raises(ResourceCapError):
        HermitianOperator(np.eye(1030))


def test_subsystem_dims_validation():
    with pytest.raises(ValidationError):
        HermitianOperator(np.eye(4), (3, 2))


# ---------------------------------------------------------------------------
# batched seeding


def _numpy_state(entropy, spawn_key=()):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key)).bit_generator.state


def test_batched_generators_match_numpy_seeding_on_entropies():
    rng = np.random.default_rng(20)
    entropies = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5, 2**96 + 7]
    entropies += rng.integers(0, 2**31, size=5000).tolist() + rng.integers(0, 2**63, size=5000).tolist()
    gens = ops._generators(entropies)
    assert len(gens) == len(entropies)
    for gen, e in zip(gens, entropies):
        assert gen.bit_generator.state == _numpy_state(e)


@pytest.mark.parametrize("master", [0, 7, 12345, 2**31 - 2, 2**40])
def test_batched_generators_match_numpy_seeding_on_spawn_keys(master):
    keys = [(k, i) for k in (1, 16) for i in list(range(200)) + [2**32 - 1, 2**32, 2**40 + 3]]
    gens = ops._generators([master] * len(keys), keys)
    for gen, key in zip(gens, keys):
        assert gen.bit_generator.state == _numpy_state(master, key)
    assert ops._generators([], []) == []


def _ginibre_two_normals(rng, dim):
    # the draw of two ``normal`` calls that the one ``standard_normal`` call replaced
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_stack_draws_equal_a_per_seed_default_rng_loop():
    seeds = np.random.default_rng(21).integers(0, 2**31 - 1, size=300).tolist()
    for dim in (1, 2, 3, 4):
        dens = ops.random_density_stack(dim, seeds, min_eig_floor=0.05 / dim)
        psd = ops.random_psd_stack(dim, seeds, min_eig_floor=0.1)
        for k, seed in enumerate(seeds):
            assert dens[k].tobytes() == random_density(dim, seed, min_eig_floor=0.05 / dim).entries.tobytes()
            g = _ginibre_two_normals(np.random.default_rng(seed), dim)
            want = la.hermitize((g @ g.conj().T) / dim + 0.1 * np.eye(dim))
            assert psd[k].tobytes() == want.tobytes()
    kraus = ops.random_channel_kraus_stack(2, 2, 2, seeds)
    for k, seed in enumerate(seeds):
        single = ops.random_channel_kraus(2, 2, 2, seed)
        assert all(kraus[k, e].tobytes() == single[e].tobytes() for e in range(2))
    # one batch of Generators shared by several stacks draws the same matrices
    gens = ops._generators(seeds)
    assert ops.random_psd_stack(3, gens).tobytes() == ops.random_psd_stack(3, seeds).tobytes()


def test_import_leaves_numpy_random_unloaded():
    # a fresh process: this one has loaded numpy.random already
    code = ("import sys\nimport cqbounds, cqbounds.cli, cqbounds.verify\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              filter(None, [_PKG_ROOT, os.environ.get("PYTHONPATH")]))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
