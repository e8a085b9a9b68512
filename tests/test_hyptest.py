import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cqbounds import bounds as bd
from cqbounds import hyptest as ht
from cqbounds.operators import density_stack, stack_entries
from cqbounds import (
    CQSource,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    HermitianOperator,
    ResourceCapError,
    ValidationError,
    brute_force_beta_distributed,
    errors_of_test,
    load_model,
    message_count,
    neyman_pearson_beta,
    random_density,
    random_psd,
    tensor_all,
    theta_n_lower,
)


EXAMPLE_MODEL = Path(__file__).resolve().parents[1] / "model.example.json"


def _src(seed0=84, seed1=85, q=(0.5, 0.5), floor=0.02):
    return CQSource(
        ["0", "1"],
        q,
        [random_density(2, seed0, min_eig_floor=floor), random_density(2, seed1, min_eig_floor=floor)],
    )


def _stack(src):
    return np.stack([s.entries for s in src.states])


def test_cqsource_invariants():
    src = _src()
    assert src.gamma >= 1.0
    assert src.eta >= src.size
    with pytest.raises(ValidationError):
        CQSource(["0", "1"], [0.6, 0.6], src.states)
    with pytest.raises(ValidationError):
        CQSource(["0", "1"], [1.0, 0.0], src.states)


def test_np_identical_hypotheses():
    rho = random_density(3, 5, min_eig_floor=0.05)
    for eps in (0.0, 0.25, 0.7):
        beta, _ = neyman_pearson_beta(rho, rho, eps)
        assert abs(beta - (1.0 - eps)) < 1e-12


def test_np_orthogonal_pure_states():
    e0 = DensityMatrix(np.diag([1.0, 0.0]))
    e1 = DensityMatrix(np.diag([0.0, 1.0]))
    for eps in (0.0, 0.3, 0.9):
        beta, _ = neyman_pearson_beta(e0, e1, eps)
        assert beta < 1e-14


def _np_grid_oracle(rho0, rho1, eps):
    """Brute force over a (t, x) threshold/randomization grid: thresholds are
    the pencil roots plus surrounding values, x solved exactly per threshold."""
    r0, r1 = rho0.entries, rho1.entries
    roots = []
    import scipy.linalg

    for z in np.atleast_1d(scipy.linalg.eig(r0, r1, right=False)):
        if np.isfinite(z) and abs(z.imag) < 1e-9:
            roots.append(max(0.0, float(z.real)))
    best = math.inf
    for t in sorted(set([0.0] + roots)):
        w, v = np.linalg.eigh(r0 - t * r1)
        tol = 1e-8 * max(1.0, float(np.max(np.abs(w))))
        pos = v[:, w > tol]
        zero = v[:, np.abs(w) <= tol]
        a0 = float(np.real(np.sum(pos.conj() * (r0 @ pos)))) if pos.size else 0.0
        b0 = float(np.real(np.sum(zero.conj() * (r0 @ zero)))) if zero.size else 0.0
        c1 = float(np.real(np.sum(pos.conj() * (r1 @ pos)))) if pos.size else 0.0
        d1 = float(np.real(np.sum(zero.conj() * (r1 @ zero)))) if zero.size else 0.0
        xs = list(np.linspace(0, 1, 21))
        if b0 > 1e-14:
            xs.append(min(1.0, max(0.0, (1.0 - eps - a0) / b0)))
        for x in xs:
            if 1.0 - a0 - x * b0 <= eps + 1e-12:
                best = min(best, c1 + x * d1)
    return best


def test_np_diagonal_example_against_grid_oracle():
    rho0 = DensityMatrix(np.diag([0.75, 0.25]))
    rho1 = DensityMatrix(np.diag([0.25, 0.75]))
    beta, test = neyman_pearson_beta(rho0, rho1, 0.25)
    assert abs(beta - 0.25) < 1e-12
    assert abs(beta - _np_grid_oracle(rho0, rho1, 0.25)) < 1e-12
    pair = errors_of_test(test, rho0, rho1)
    assert pair.alpha <= 0.25 + 1e-10


def test_np_monotone_and_valid_test():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho0 = random_density(3, int(rng.integers(0, 2**31)), min_eig_floor=0.01)
        rho1 = random_density(3, int(rng.integers(0, 2**31)), min_eig_floor=0.01)
        prev = math.inf
        for eps in np.arange(0.05, 0.99, 0.1):
            beta, test = neyman_pearson_beta(rho0, rho1, float(eps))
            w = np.linalg.eigvalsh(test.entries)
            assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10
            pair = errors_of_test(test, rho0, rho1)
            assert pair.alpha <= eps + 1e-10
            assert abs(pair.beta - beta) < 1e-12
            assert beta <= prev + 1e-9
            prev = beta


def test_errors_of_test_trivial_cases():
    rho0 = random_density(2, 8)
    rho1 = random_density(2, 9)
    full = errors_of_test(HermitianOperator(np.eye(2)), rho0, rho1)
    assert abs(full.alpha) < 1e-12 and abs(full.beta - 1.0) < 1e-12
    none = errors_of_test(HermitianOperator(np.zeros((2, 2))), rho0, rho1)
    assert abs(none.alpha - 1.0) < 1e-12 and abs(none.beta) < 1e-12
    half = errors_of_test(HermitianOperator(np.eye(2) / 2), rho0, rho1)
    assert abs(half.alpha - 0.5) < 1e-12 and abs(half.beta - 0.5) < 1e-12
    with pytest.raises(DomainError):
        errors_of_test(HermitianOperator(2.0 * np.eye(2)), rho0, rho1)
    with pytest.raises(DimensionMismatchError):
        errors_of_test(HermitianOperator(np.eye(4) / 2), rho0, rho1)
    with pytest.raises(DimensionMismatchError):
        errors_of_test(HermitianOperator(np.eye(2)), rho0, random_density(3, 10))


def test_product_source():
    src = _src(q=(0.3, 0.7))
    one = ht.product_stack(src.q_x, _stack(src), 1)
    assert _bits(one[0]) == _bits(src.q_x) and _bits(one[1]) == _bits(_stack(src))
    q2, states2 = ht.product_stack(src.q_x, _stack(src), 2)
    assert q2.shape == (4,)
    np.testing.assert_allclose(
        sorted(q2), sorted([0.09, 0.21, 0.21, 0.49])
    )
    two = CQSource(["00", "01", "10", "11"], q2, [DensityMatrix(m) for m in states2])
    assert abs(two.eta - src.eta**2) < 1e-9
    assert abs(two.gamma - src.gamma**2) < 1e-9
    with pytest.raises(ResourceCapError):
        ht.check_product_dim(src, 6)


def test_message_count():
    assert message_count(1, math.log(2.0)) == 2
    assert message_count(2, math.log(2.0)) == 4
    assert message_count(3, 0.1) == 1
    assert message_count(1, math.log(2.5)) == 2


def _encode(src, kernel):
    """``encode_stack`` on one source: the kept messages, their probabilities
    and their conditional states."""
    _, msg, p, states = ht.encode_stack(src.q_x[None], _stack(src)[None], np.asarray(kernel)[None])
    return msg.tolist(), p, density_stack(states)


def test_apply_encoder():
    src = _src()
    msg, p, states = _encode(src, np.eye(2))
    np.testing.assert_allclose(p, src.q_x)
    np.testing.assert_allclose(states, _stack(src), atol=1e-12)

    msg, p, states = _encode(src, np.ones((2, 1)))
    assert msg == [0]
    np.testing.assert_allclose(states[0], src.rho_y.entries, atol=1e-12)

    # hand summation for a nontrivial stochastic kernel
    kernel = np.array([[0.8, 0.2], [0.3, 0.7]])
    msg, p, states = _encode(src, kernel)
    p_a = 0.5 * 0.8 + 0.5 * 0.3
    sigma_a = (0.5 * 0.8 * src.states[0].entries + 0.5 * 0.3 * src.states[1].entries) / p_a
    assert abs(p[0] - p_a) < 1e-14
    np.testing.assert_allclose(states[0], sigma_a, atol=1e-13)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_stacked_product_source_and_encoder_match_plain_loops():
    # three-symbol sources at n = 2: nine sequences, so masses of eight or
    # more terms are summed too
    sources = [CQSource(["a", "b", "c"], q, [random_density(2, s + k, min_eig_floor=0.02)
                                             for k in range(3)])
               for s, q in ((40, (0.2, 0.3, 0.5)), (50, (0.6, 0.1, 0.3)))]
    rng = np.random.default_rng(3)
    kernels = rng.uniform(0.0, 1.0, size=(2, 9, 3))
    kernels[0, :, 2] = 0.0  # message "2" of the first encoder carries no mass
    kernels /= kernels.sum(axis=-1, keepdims=True)
    q = np.stack([s.q_x for s in sources])
    states = np.stack([[st.entries for st in s.states] for s in sources])
    q2, states2 = ht.product_stack(q, states, 2)
    inst, msg, p, sigma = ht.encode_stack(q2, states2, kernels)
    assert inst.tolist() == [0, 0, 1, 1, 1] and msg.tolist() == [0, 1, 0, 1, 2]
    for k, src in enumerate(sources):
        seqs = list(itertools.product(range(3), repeat=2))
        # the n-letter extension and the encoder as plain loops
        want_q = [float(np.prod([src.q_x[i] for i in seq])) for seq in seqs]
        want_states = [tensor_all([src.states[i] for i in seq]).entries for seq in seqs]
        assert _bits(q2[k]) == _bits(np.array(want_q))
        for got, want in zip(states2[k], want_states):
            assert _bits(got) == _bits(want)
        weights = q2[k][:, None] * kernels[k]
        p_all = weights.sum(axis=0)
        rows = np.flatnonzero(inst == k)
        assert msg[rows].tolist() == [j for j in range(3) if p_all[j] > 1e-14]
        for r, j in zip(rows, msg[rows].tolist()):
            block = sum(weights[i, j] * states2[k][i] for i in range(9) if weights[i, j] > 0.0)
            assert p[r] == p_all[j]
            assert _bits(sigma[r]) == _bits(block / p_all[j])


def test_expurgate_stack_raises_the_first_broken_family():
    # 1x1 families: tr(rho1 T_w) = t_w.  "markov" keeps too little mass for
    # the per-message bound; "heavy" has a conditional state of trace 100,
    # which breaks the type-I guarantee alone.
    families = {
        "markov": ([0.01, 0.01], [0.5, 0.9], [1.0, 1.0], 0.5),
        "heavy": ([0.5, 0.5], [0.2, 0.8], [1.0, 100.0], 0.6),
    }
    for names, error in ((("markov", "heavy"), "per-message"), (("heavy", "markov"), "type-I")):
        p, t, sig, eps = (np.array([families[f][k] for f in names]) for k in range(4))
        with pytest.raises(ValidationError, match=error):
            ht.expurgate_stack(t[..., None, None] + 0j, p, sig[..., None, None] + 0j,
                               np.ones((2, 1, 1), dtype=complex), eps)


def test_brute_force_unconstrained_matches_identity_encoder():
    src = _src()
    beta, record = brute_force_beta_distributed(src, 1, math.log(2.5), 0.3)
    joint = src.joint_state()
    alt = src.independence_alternative()
    direct, _ = neyman_pearson_beta(joint, alt, 0.3)
    assert abs(beta - direct) < 1e-10
    assert record.constants["w_size"] == 2


def test_brute_force_single_message():
    src = _src()
    beta, record = brute_force_beta_distributed(src, 1, 0.2, 0.35)
    assert record.constants["w_size"] == 1
    assert abs(beta - 0.65) < 1e-10  # sigma_Y vs sigma_Y: beta = 1 - eps


def _independent_encoder_oracle(src, n, w_size, eps):
    """Re-enumerate every deterministic encoder from scratch."""
    seqs = list(itertools.product(range(src.size), repeat=n))
    weights = [float(np.prod([src.q_x[i] for i in s])) for s in seqs]
    states = [tensor_all([src.states[i] for i in s]).entries for s in seqs]
    alt_block = tensor_all([src.rho_y] * n).entries
    d = alt_block.shape[0]
    best = math.inf
    for f in itertools.product(range(w_size), repeat=len(seqs)):
        groups = {}
        for idx, w in enumerate(f):
            groups.setdefault(w, []).append(idx)
        keys = sorted(groups)
        size = len(keys) * d
        null = np.zeros((size, size), dtype=complex)
        alt = np.zeros((size, size), dtype=complex)
        for pos, w in enumerate(keys):
            block = sum(weights[i] * states[i] for i in groups[w])
            p = sum(weights[i] for i in groups[w])
            null[pos * d : (pos + 1) * d, pos * d : (pos + 1) * d] = block
            alt[pos * d : (pos + 1) * d, pos * d : (pos + 1) * d] = p * alt_block
        beta, _ = neyman_pearson_beta(DensityMatrix(null), DensityMatrix(alt), eps)
        best = min(best, beta)
    return best


def test_brute_force_matches_independent_oracle():
    # pure-state outputs, n = 2, |W| = 2: all 16 encoders re-enumerated
    e0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    src = CQSource(["0", "1"], [0.5, 0.5], [e0, plus])
    rate = math.log(2.2) / 2
    beta, record = brute_force_beta_distributed(src, 2, rate, 0.25)
    assert record.constants["num_encoders"] == 16
    oracle = _independent_encoder_oracle(src, 2, 2, 0.25)
    assert abs(beta - oracle) < 1e-11


def _encoder_loop_reference(src, n, encoders, eps):
    """Brute force as a plain loop over the given encoders on the unvalidated
    product states: each encoder's blocks in increasing message order, blocks
    of mass <= 1e-14 dropped, solved block by block as a stack of one; first
    minimum wins."""
    q_n, states_n = ht.product_stack(src.q_x, _stack(src), n)
    rho1 = tensor_all([src.rho_y] * n).entries if n > 1 else src.rho_y.entries
    best = None
    for assignment in encoders:
        null_blocks, alt_blocks = [], []
        for w in sorted(set(assignment)):
            members = [i for i, a in enumerate(assignment) if a == w]
            p = float(np.sum(q_n[members]))
            if p <= 1e-14:
                continue
            null_blocks.append(sum(q_n[i] * states_n[i] for i in members))
            alt_blocks.append(p * rho1)
        null, alt = (density_stack(np.stack(b)[None], blocks=True) for b in (null_blocks, alt_blocks))
        beta = float(ht.neyman_pearson_beta_stack(null, alt, eps)[0])
        if best is None or beta < best[0]:
            best = (beta, assignment)
    return best


def _rank_deficient_source():
    """Qutrit outputs that all live on the first two levels, so every
    alternative p_w rho_y^(x)n is rank-deficient."""
    states = []
    for seed in (31, 32):
        out = np.zeros((3, 3), dtype=complex)
        out[:2, :2] = random_density(2, seed, min_eig_floor=0.05).entries
        states.append(DensityMatrix(out))
    return CQSource(["0", "1"], [0.4, 0.6], states)


@functools.lru_cache(maxsize=None)
def _orbits(x_size, n, w_size):
    """Every map of the |X|^n sequences (lexicographic) into ``w_size``
    messages, in lexicographic order, and each map's orbit label: the
    base-``w_size`` number of the least member of its orbit, found by
    applying all n! site permutations and all w_size! message relabellings."""
    seqs = list(itertools.product(range(x_size), repeat=n))
    index = {s: i for i, s in enumerate(seqs)}
    maps = np.array(list(itertools.product(range(w_size), repeat=len(seqs))))
    powers = w_size ** np.arange(len(seqs) - 1, -1, -1)
    label = np.full(len(maps), len(maps))
    for sites in itertools.permutations(range(n)):
        moved = maps[:, [index[tuple(s[j] for j in sites)] for s in seqs]]
        for relabel in itertools.permutations(range(w_size)):
            label = np.minimum(label, np.array(relabel)[moved] @ powers)
    return maps, label


def _canonical(assignment, x_size, n, w_size):
    """The least member of an encoder's orbit, by ``_orbits``."""
    maps, label = _orbits(x_size, n, w_size)
    code = int(np.array(assignment) @ (w_size ** np.arange(len(assignment) - 1, -1, -1)))
    return tuple(maps[label[code]].tolist())


@pytest.mark.parametrize("x_size, n, w_size, count", [
    (2, 1, 2, 2), (2, 2, 2, 6), (2, 3, 2, 40), (2, 2, 3, 10), (2, 3, 3, 250),
    (3, 2, 2, 144), (3, 2, 3, 1708),
])
def test_encoder_chunks_yield_the_least_member_of_each_orbit(x_size, n, w_size, count):
    chunks = list(ht.encoder_chunks(w_size, x_size, n, 2))
    reps = [a for chunk in chunks for a in chunk]
    step = ht.stack_step(min(w_size, x_size**n) * 2)
    assert [len(c) for c in chunks[:-1]] == [step] * (len(chunks) - 1)
    assert len(reps) == count
    assert reps == sorted(set(reps))
    maps, label = _orbits(x_size, n, w_size)
    codes = [int(np.array(a) @ (w_size ** np.arange(x_size**n - 1, -1, -1))) for a in reps]
    # each representative is the least member of its orbit, and every
    # orbit holds exactly one of them
    assert codes == label[codes].tolist()
    assert sorted(codes) == np.unique(label).tolist()
    sizes = np.bincount(label)
    assert int(sizes[codes].sum()) == w_size ** (x_size**n) == len(maps)


@pytest.mark.parametrize("case", ["three-messages", "rank-deficient"])
def test_brute_force_matches_encoder_loop_bit_for_bit(case, monkeypatch):
    if case == "three-messages":
        # the 10 orbits of 81 encoders, with 1, 2 and 3 blocks
        src, n, w_size = _src(), 2, 3
    else:
        src, n, w_size = _rank_deficient_source(), 2, 2
    r1 = math.log(w_size) / n
    # 4 of the largest block-diagonal states per stacked step: the
    # representative count is not a multiple of it, and a step splits one
    # encoder's pencils
    dim = min(w_size, src.size**n) * src.d_y**n
    monkeypatch.setattr(ht, "STACK_BYTES", 16 * dim * dim * 4)
    maps, label = _orbits(src.size, n, w_size)
    reps = [tuple(m) for m in maps[label == np.arange(len(maps))].tolist()]
    assert len(reps) % ht.stack_step(dim) != 0
    want_beta, want_assignment = _encoder_loop_reference(src, n, reps, 0.3)
    beta, record = brute_force_beta_distributed(src, n, r1, 0.3)
    assert record.constants["num_encoders"] == w_size ** (src.size**n)
    assert beta == want_beta
    assert record.witnesses["assignment"] == want_assignment


def _every_encoder(w_size, x_size, n, dim):
    """All W^(|X|^n) maps in lexicographic order, in the chunks
    ``encoder_chunks`` uses: the full search the orbit search replaces."""
    maps = itertools.product(range(w_size), repeat=x_size**n)
    step = ht.stack_step(min(w_size, x_size**n) * dim)
    while chunk := list(itertools.islice(maps, step)):
        yield chunk


def _oracle_cases(max_maps):
    """Every (|X|, n, W) with 2 <= W <= |X|^n and at most ``max_maps`` maps
    for |X| <= 5 (which holds every case with n >= 2 up to 6,561 maps; at
    n = 1 only the messages are relabelled, so larger alphabets add no kind
    of symmetry), and three with W > |X|^n (messages no encoder can all use)."""
    cases = [(x, n, w) for x in range(2, 6) for n in range(1, 4) for w in range(2, x**n + 1)
             if w ** (x**n) <= max_maps]
    wide = [(x, n, w) for x, n, w in ((2, 1, 3), (3, 1, 4), (2, 2, 5)) if w ** (x**n) <= max_maps]
    return cases + wide


def _cq_source(x_size, d, seed):
    q = np.arange(1.0, x_size + 1.0)
    return CQSource([str(x) for x in range(x_size)], q / q.sum(),
                    [random_density(d, seed + x, min_eig_floor=0.02) for x in range(x_size)])


@pytest.mark.parametrize("x_size, n, w_size", _oracle_cases(6561))
def test_orbit_search_matches_full_enumeration(x_size, n, w_size, monkeypatch):
    src = _cq_source(x_size, 2, 40 + 7 * x_size + n)
    alt = [random_density(2, 90 + x, min_eig_floor=0.05) for x in range(x_size)]
    r1 = math.log(w_size + 0.5) / n
    beta, record = brute_force_beta_distributed(src, n, r1, 0.3)
    theta = theta_n_lower(src, alt, n, r1)
    # larger stacked steps only save time: each member keeps its bits
    monkeypatch.setattr(ht, "STACK_BYTES", 1 << 20)
    monkeypatch.setattr(ht, "encoder_chunks", _every_encoder)
    monkeypatch.setattr(bd, "encoder_chunks", _every_encoder)
    full_beta, full_record = brute_force_beta_distributed(src, n, r1, 0.3)
    assert beta == pytest.approx(full_beta, rel=1e-12, abs=0.0)
    assert theta_n_lower(src, alt, n, r1) == pytest.approx(theta, rel=1e-12, abs=0.0)
    assert record.constants == full_record.constants | {"beta_min": beta}
    witness = record.witnesses["assignment"]
    assert witness == _canonical(witness, x_size, n, w_size)
    assert witness == _canonical(full_record.witnesses["assignment"], x_size, n, w_size)


@pytest.mark.parametrize("n, w_size", [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_orbit_search_matches_full_enumeration_on_rank_deficient_qutrits(n, w_size, monkeypatch):
    src = _rank_deficient_source()
    r1 = math.log(w_size + 0.5) / n
    beta, record = brute_force_beta_distributed(src, n, r1, 0.7)
    monkeypatch.setattr(ht, "encoder_chunks", _every_encoder)
    full_beta, full_record = brute_force_beta_distributed(src, n, r1, 0.7)
    assert beta == pytest.approx(full_beta, rel=1e-12, abs=0.0)
    assert record.witnesses["assignment"] == _canonical(full_record.witnesses["assignment"],
                                                        2, n, w_size)


def _haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    qm, r = np.linalg.qr(z)
    return qm * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("case, n, r1, eps", [
    ("rank-deficient", 2, math.log(2.0) / 2, 0.7),
    ("example", 3, 0.3, 0.3),
    ("example", 2, 0.4, 0.5),
])
def test_best_encoder_does_not_move_under_rotation(case, n, r1, eps):
    # a unitary on the output space leaves every encoder's beta unchanged;
    # picking the first of a tie within one orbit by its last bits, the
    # full search printed two or three witnesses over these 20 rotations
    src = _rank_deficient_source() if case == "rank-deficient" else load_model(EXAMPLE_MODEL)[0]
    witnesses, betas = set(), []
    for seed in range(20):
        u = _haar_unitary(src.d_y, seed)
        turned = CQSource(src.alphabet, src.q_x,
                          [DensityMatrix(u @ s.entries @ u.conj().T) for s in src.states])
        beta, record = brute_force_beta_distributed(turned, n, r1, eps)
        assert record.constants["w_size"] == 2
        witnesses.add("".join(str(w) for w in record.witnesses["assignment"]))
        betas.append(beta)
    assert len(witnesses) == 1
    assert max(betas) - min(betas) <= 1e-12 * min(betas)


def test_stacked_neyman_pearson_matches_single_calls():
    pairs, eps = [], []
    for k in range(24):
        rho0 = random_density(3, 100 + k, min_eig_floor=0.0 if k % 2 else 0.02)
        rho1 = random_density(3, 200 + k, min_eig_floor=0.02)
        if k % 3 == 0:
            # rank-deficient alternative: the kernel of rho1 carries part of rho0
            w, v = np.linalg.eigh(rho1.entries)
            w[0] = 0.0
            rho1 = DensityMatrix((v * (w / w.sum())) @ v.conj().T)
        pairs.append((rho0, rho1))
        eps.append(0.05 + 0.9 * k / 24)
    r0 = np.stack([a.entries for a, _ in pairs])
    r1 = np.stack([b.entries for _, b in pairs])
    stacked = ht.neyman_pearson_beta_stack(r0, r1, eps)
    for (rho0, rho1), e, got in zip(pairs, eps, stacked.tolist()):
        assert got == neyman_pearson_beta(rho0, rho1, e)[0]
    with pytest.raises(DomainError):
        ht.neyman_pearson_beta_stack(r0, r1, [0.3] * 23 + [float("nan")])


def _cq_blocks(seed, blocks, dim, rank_deficient=False):
    """A random pair of block-diagonal states with ``blocks`` blocks: masses
    q_b and blocks q_b rho_b, q_b sigma_b.  With ``rank_deficient`` the
    sigma_b of even b lose their smallest eigenvalue.  Block 1 repeats block
    0's pair, so their thresholds coincide."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(blocks))
    r0 = np.stack([random_density(dim, 10 * seed + b).entries for b in range(blocks)])
    r1 = np.stack([random_density(dim, 10 * seed + 5 + b, min_eig_floor=0.02).entries
                   for b in range(blocks)])
    if rank_deficient:
        for b in range(0, blocks, 2):
            w, v = np.linalg.eigh(r1[b])
            w[0] = 0.0
            r1[b] = (v * (w / w.sum())) @ v.conj().T
    r0[1], r1[1] = r0[0], r1[0]
    return q[:, None, None] * r0, q[:, None, None] * r1


@pytest.mark.parametrize("rank_deficient", [False, True])
@pytest.mark.parametrize("eps", [1e-6, 0.05, 0.3, 0.7, 0.999])
def test_blockwise_neyman_pearson_matches_dense(eps, rank_deficient):
    for seed in range(6):
        r0, r1 = _cq_blocks(seed, 2 + seed % 3, 2 + seed % 2, rank_deficient)
        dense, _ = neyman_pearson_beta(DensityMatrix(scipy.linalg.block_diag(*r0)),
                                       DensityMatrix(scipy.linalg.block_diag(*r1)), eps)
        blockwise = ht.neyman_pearson_beta_stack(r0[None], r1[None], eps)[0]
        assert abs(blockwise - dense) <= 1e-12


def test_stacked_blockwise_neyman_pearson_matches_single_calls(monkeypatch):
    pairs = [_cq_blocks(seed, 3, 2, rank_deficient=seed % 3 == 0) for seed in range(12)]
    r0, r1 = (np.stack(m) for m in zip(*pairs))
    eps = np.linspace(0.02, 0.95, len(pairs))
    # a few pencils per stacked step, so steps mix members and split them
    monkeypatch.setattr(ht, "STACK_BYTES", 16 * 2 * 2 * 7)
    stacked = ht.neyman_pearson_beta_stack(r0, r1, eps).tolist()
    for a, b, e, got in zip(r0, r1, eps.tolist(), stacked):
        assert got == ht.neyman_pearson_beta_stack(a[None], b[None], e)[0]


def test_brute_force_monotonicity():
    src = _src()
    b1, _ = brute_force_beta_distributed(src, 1, 0.3, 0.3)
    b2, _ = brute_force_beta_distributed(src, 1, math.log(2.1), 0.3)
    assert b2 <= b1 + 1e-12
    b3, _ = brute_force_beta_distributed(src, 1, math.log(2.1), 0.5)
    assert b3 <= b2 + 1e-12


def test_brute_force_cap():
    src = CQSource(
        ["a", "b", "c"],
        [1 / 3] * 3,
        [random_density(2, s, min_eig_floor=0.1) for s in (1, 2, 3)],
    )
    with pytest.raises(ResourceCapError):
        brute_force_beta_distributed(src, 2, math.log(6.0), 0.3)


def _encoded_family(seed, w_size=4):
    """A random test family on the n = 2 extension of ``_src()`` under a
    random deterministic encoder into ``w_size`` messages: the checked test
    operators, message probabilities and conditional states of the kept
    messages, and the product alternative, as ``expurgate_stack`` takes them."""
    rng = np.random.default_rng(seed)
    src = _src()
    q2, states2 = ht.product_stack(src.q_x, _stack(src), 2)
    assignment = [int(rng.integers(0, w_size)) for _ in range(len(q2))]
    kernel = np.eye(w_size)[assignment]
    _, _, p, sigma = ht.encode_stack(q2[None], density_stack(states2)[None], kernel[None])
    rho1 = tensor_all([src.rho_y] * 2).entries
    raw = np.stack([random_psd(4, int(rng.integers(0, 2**31))).entries for _ in p])
    ops = ht.measurement_stack(raw / (np.linalg.eigvalsh(raw)[:, -1] + 1e-9)[:, None, None])
    return ops, p, density_stack(sigma), rho1


def test_expurgate_postconditions_random_families():
    for seed in range(30):
        ops, p, sigma, rho1 = _encoded_family(seed)
        _, out = ht.expurgate_stack(ops, p, sigma, rho1, 0.3)  # raises if broken
        # survivors sorted by type-II weight, nondecreasing
        vals = [float(np.trace(rho1 @ op).real) for op in out]
        kept = [v for v in vals if v > 0.0]
        assert all(kept[i] <= kept[i + 1] + 1e-12 for i in range(len(kept) - 1))


def test_expurgate_single_message_and_small_budget():
    src = _src()
    _, _, p, sigma = ht.encode_stack(src.q_x[None], _stack(src)[None], np.ones((1, 2, 1)))
    op = np.eye(2, dtype=complex)[None] * 0.5
    _, out = ht.expurgate_stack(op, p, density_stack(sigma), src.rho_y.entries, 0.4)
    np.testing.assert_allclose(out, op)
    # a budget below every tail mass leaves multi-message families unchanged
    ops4, p4, sigma4, rho14 = _encoded_family(99)
    tiny = float(np.min(p4)) * 0.5
    order4, out4 = ht.expurgate_stack(ops4, p4, sigma4, rho14, tiny)
    np.testing.assert_allclose(out4, ops4[order4])
    with pytest.raises(DomainError):
        ht.expurgate_stack(ops4, p4, sigma4, rho14, 1.0)


def test_test_family_validation():
    with pytest.raises(ValidationError):
        ht.measurement_stack(1.5 * np.eye(2, dtype=complex)[None], ["a"])


def test_brute_force_builds_no_density_matrix(monkeypatch):
    # the n-letter extension is read from product_stack: no validated
    # DensityMatrix per sequence and no n-letter CQSource
    src, _ = load_model(EXAMPLE_MODEL)
    built = []
    init = DensityMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", counting)
    beta, _ = brute_force_beta_distributed(src, 3, 0.3, 0.3)
    assert len(built) == 0
    assert beta == 0.43612058998199416


def test_symmetric_encoders_tie_up_to_rounding():
    # relabelling the two messages, or permuting the letters of the i.i.d.
    # source, leaves an encoder's beta unchanged in exact arithmetic: each of
    # these six encoders sends x^3 to one of its letters or to its complement
    src, _ = load_model(EXAMPLE_MODEL)
    q_n, states_n = ht.product_stack(src.q_x, stack_entries(src.states), 3)
    rho1 = tensor_all([src.rho_y] * 3).entries
    encoders = ["00001111", "00110011", "01010101"]
    encoders += [e.translate(str.maketrans("01", "10")) for e in encoders]
    betas = ht._encoder_betas([tuple(map(int, e)) for e in encoders], q_n, states_n, rho1, 0.3)
    assert max(betas) - min(betas) <= 1e-12 * min(betas)
    # the search keeps the first encoder, in lexicographic order, of the
    # smallest computed beta: 00001111 wins its tie with the last bits
    beta, record = brute_force_beta_distributed(src, 3, 0.3, 0.3)
    assert record.witnesses["assignment"] == (0, 0, 0, 0, 1, 1, 1, 1)
    assert beta == betas[0] == min(betas)
