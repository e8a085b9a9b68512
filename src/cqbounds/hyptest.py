"""Binary quantum hypothesis testing, classical-quantum sources, classical
encoders, brute-force distributed type-II error, and test expurgation.

The optimal-test solver sweeps the thresholds given by the generalized
eigenvalues of the pencil rho0 - t rho1 and mixes in the boundary eigenspace
with one scalar weight, which exhausts the type-I budget deterministically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _linalg as la
from .config import (
    BLOCK_MASS_TOL,
    ENCODER_ENUM_CAP,
    MAX_TOTAL_DIM,
    SUPPORT_TOL,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    ResourceCapError,
    ValidationError,
)
from .operators import DensityMatrix, HermitianOperator, tensor_all
from .reports import BoundReport


class CQSource:
    """A finite alphabet with a distribution and one output state per symbol.

    Caches the average output state, eta = max_x 1/Q(x), and
    gamma = max_x ||rho_x avg^-1||_inf (operator norm through the
    support-restricted inverse of the average state).
    """

    __slots__ = ("alphabet", "q_x", "states", "rho_y", "eta", "gamma")

    def __init__(self, alphabet, q_x, states):
        alphabet = tuple(str(a) for a in alphabet)
        q = np.asarray(q_x, dtype=float)
        states = tuple(states)
        if len(alphabet) != len(set(alphabet)):
            raise ValidationError("alphabet labels must be distinct")
        if q.shape != (len(alphabet),) or len(states) != len(alphabet):
            raise ValidationError(
                f"alphabet/distribution/states lengths disagree: "
                f"{len(alphabet)}/{q.shape}/{len(states)}"
            )
        if abs(float(q.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"q_x sums to {float(q.sum())!r}, not 1 (tolerance 1e-9)")
        if np.any(q <= 0.0):
            raise ValidationError("q_x must have full support (all entries > 0)")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValidationError(f"output states live on different dimensions: {sorted(dims)}")
        q.setflags(write=False)
        avg = sum(qi * s.entries for qi, s in zip(q, states))
        rho_y = DensityMatrix(avg)
        inv = la.pinv_psd(rho_y.entries)
        gamma = max(
            float(np.linalg.norm(s.entries @ inv, 2)) for s in states
        )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "q_x", q)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rho_y", rho_y)
        object.__setattr__(self, "eta", float(1.0 / np.min(q)))
        object.__setattr__(self, "gamma", max(1.0, gamma))

    def __setattr__(self, name, value):
        raise AttributeError("CQSource is immutable")

    @property
    def size(self) -> int:
        return len(self.alphabet)

    @property
    def d_y(self) -> int:
        return self.states[0].dim

    def joint_state(self) -> DensityMatrix:
        """Block-diagonal joint state sum_x Q(x)|x><x| o rho_x."""
        k, d = self.size, self.d_y
        out = np.zeros((k * d, k * d), dtype=complex)
        for i, (qi, s) in enumerate(zip(self.q_x, self.states)):
            out[i * d : (i + 1) * d, i * d : (i + 1) * d] = qi * s.entries
        return DensityMatrix(out, (k, d))

    def independence_alternative(self) -> DensityMatrix:
        """Product of marginals, diag(Q) o rho_avg, on the same layout."""
        k, d = self.size, self.d_y
        out = np.kron(np.diag(self.q_x).astype(complex), self.rho_y.entries)
        return DensityMatrix(out, (k, d))

    def __repr__(self):
        return f"CQSource(|X|={self.size}, d_y={self.d_y}, eta={self.eta:.4g}, gamma={self.gamma:.4g})"


class StochasticChannel:
    """A row-stochastic kernel between two finite alphabets."""

    __slots__ = ("in_alphabet", "out_alphabet", "kernel")

    def __init__(self, in_alphabet, out_alphabet, kernel):
        in_alphabet = tuple(str(a) for a in in_alphabet)
        out_alphabet = tuple(str(a) for a in out_alphabet)
        k = np.asarray(kernel, dtype=float)
        if k.shape != (len(in_alphabet), len(out_alphabet)):
            raise ValidationError(
                f"kernel shape {k.shape} incompatible with alphabets "
                f"{len(in_alphabet)}x{len(out_alphabet)}"
            )
        if np.any(k < -1e-12):
            raise ValidationError("kernel entries must be nonnegative")
        k = np.maximum(k, 0.0)
        rows = k.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            worst = int(np.argmax(np.abs(rows - 1.0)))
            raise ValidationError(
                f"kernel row {worst} sums to {rows[worst]!r}, not 1 (tolerance 1e-12)"
            )
        k.setflags(write=False)
        object.__setattr__(self, "in_alphabet", in_alphabet)
        object.__setattr__(self, "out_alphabet", out_alphabet)
        object.__setattr__(self, "kernel", k)

    def __setattr__(self, name, value):
        raise AttributeError("StochasticChannel is immutable")

    @classmethod
    def identity(cls, alphabet):
        n = len(alphabet)
        return cls(alphabet, alphabet, np.eye(n))

    @classmethod
    def constant(cls, in_alphabet, out_label="*"):
        n = len(in_alphabet)
        return cls(in_alphabet, [out_label], np.ones((n, 1)))

    @classmethod
    def deterministic(cls, in_alphabet, out_alphabet, assignment):
        """Encoder x -> out_alphabet[assignment[x_index]]."""
        k = np.zeros((len(in_alphabet), len(out_alphabet)))
        for i, w in enumerate(assignment):
            k[i, w] = 1.0
        return cls(in_alphabet, out_alphabet, k)

    def __repr__(self):
        return f"StochasticChannel({len(self.in_alphabet)}->{len(self.out_alphabet)})"


def tensor_channels(a: StochasticChannel, b: StochasticChannel) -> StochasticChannel:
    """Product channel acting independently on a pair of inputs."""
    in_alpha = [x + "," + y for x in a.in_alphabet for y in b.in_alphabet]
    out_alpha = [x + "," + y for x in a.out_alphabet for y in b.out_alphabet]
    return StochasticChannel(in_alpha, out_alpha, np.kron(a.kernel, b.kernel))


class TestFamily:
    """Measurement operators 0 <= T_w <= Id indexed by classical messages."""

    __slots__ = ("messages", "operators")
    __test__ = False  # not a pytest class, despite the name

    def __init__(self, messages, operators):
        messages = tuple(str(m) for m in messages)
        if len(messages) != len(set(messages)):
            raise ValidationError("messages must be distinct")
        ops = {}
        for m in messages:
            op = operators[m]
            arr = op.entries if isinstance(op, (HermitianOperator, DensityMatrix)) else np.asarray(op, dtype=complex)
            arr = la.hermitize(arr)
            w, v = np.linalg.eigh(arr)
            if w[0] < -1e-10 or w[-1] > 1.0 + 1e-10:
                raise ValidationError(
                    f"test operator for message {m!r} has spectrum "
                    f"[{w[0]:.3e}, {w[-1]:.6f}] outside [0,1] (tolerance 1e-10)"
                )
            w = np.clip(w, 0.0, 1.0)
            ops[m] = HermitianOperator((v * w) @ v.conj().T)
        object.__setattr__(self, "messages", messages)
        object.__setattr__(self, "operators", ops)

    def __setattr__(self, name, value):
        raise AttributeError("TestFamily is immutable")


@dataclass(frozen=True)
class ErrorPair:
    """Type-I (alpha) and type-II (beta) error probabilities."""

    alpha: float
    beta: float

    def __post_init__(self):
        for label, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not -1e-10 <= v <= 1.0 + 1e-10:
                raise ValidationError(f"{label}={v!r} outside [0,1] (tolerance 1e-10)")
        object.__setattr__(self, "alpha", min(1.0, max(0.0, self.alpha)))
        object.__setattr__(self, "beta", min(1.0, max(0.0, self.beta)))


def _weights(vectors: np.ndarray, mat: np.ndarray) -> float:
    """sum_j <v_j| mat |v_j> for the columns of ``vectors``."""
    if vectors.size == 0:
        return 0.0
    return float(np.real(np.sum(vectors.conj() * (mat @ vectors))))


def _pencil_thresholds(r0: np.ndarray, r1: np.ndarray) -> list:
    vals = scipy.linalg.eig(r0, r1, right=False)
    out = [0.0]
    for z in np.atleast_1d(vals):
        if not np.isfinite(z):
            continue
        if abs(z.imag) > 1e-8 * (1.0 + abs(z.real)):
            continue
        t = float(z.real)
        if t < -1e-10:
            continue
        out.append(max(t, 0.0))
    out = sorted(out)
    dedup = [out[0]]
    for t in out[1:]:
        if t - dedup[-1] > 1e-12 * (1.0 + t):
            dedup.append(t)
    return dedup


def neyman_pearson_beta(rho0: DensityMatrix, rho1: DensityMatrix, eps: float):
    """Minimal type-II error at type-I budget ``eps`` over threshold tests.

    Sweeps t over the generalized eigenvalues of the pencil rho0 - t rho1;
    each candidate test is the projector onto the strictly positive part plus
    one scalar fraction x of the boundary eigenspace, with x chosen so the
    type-I error equals eps exactly whenever that lowers beta.  Returns
    (beta, test).
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0,1); got {eps!r}")
    r0, r1 = rho0.entries, rho1.entries
    if r0.shape != r1.shape:
        raise DimensionMismatchError(f"hypothesis dims {r0.shape[0]} vs {r1.shape[0]}")
    dim = r0.shape[0]
    best = None  # (beta, order, test_matrix)

    def consider(beta, test, order):
        nonlocal best
        beta = max(0.0, min(1.0, beta))
        if best is None or beta < best[0] - 1e-15:
            best = (beta, order, test)

    for order, t in enumerate(_pencil_thresholds(r0, r1)):
        a = r0 - t * r1
        w, v = np.linalg.eigh(a)
        tol_b = 1e-8 * max(1.0, float(np.max(np.abs(w))))
        pos = v[:, w > tol_b]
        zero = v[:, np.abs(w) <= tol_b]
        a0 = _weights(pos, r0)
        b0 = _weights(zero, r0)
        c1 = _weights(pos, r1)
        d1 = _weights(zero, r1)
        slack = 1.0 - eps - a0
        if slack <= 1e-12:
            x = 0.0
        elif b0 > 1e-14 and slack / b0 <= 1.0 + 1e-9:
            x = min(1.0, slack / b0)
        else:
            continue
        test = pos @ pos.conj().T
        if x > 0.0 and zero.size:
            test = test + x * (zero @ zero.conj().T)
        consider(c1 + x * d1, test, order)

    # limiting threshold: tests supported on the kernel of rho1 cost no beta
    w1, v1 = np.linalg.eigh(r1)
    ker = v1[:, w1 <= SUPPORT_TOL * max(1.0, float(w1[-1]))]
    if ker.shape[1] > 0:
        comp = la.hermitize(ker.conj().T @ r0 @ ker, tol=1e-9)
        wk, vk = np.linalg.eigh(comp)
        cols = ker @ vk[:, wk > 1e-12]
        a0 = _weights(cols, r0)
        if 1.0 - a0 <= eps + 1e-12:
            consider(_weights(cols, r1), cols @ cols.conj().T, 10**9)

    if best is None:
        # unreachable: t = 0 keeps the support of rho0, whose type-I error is 0
        raise DomainError("no feasible threshold test found")
    beta, _, test = best
    return beta, HermitianOperator(la.hermitize(test, tol=1e-9), rho0.subsystem_dims)


def errors_of_test(t_op, rho0: DensityMatrix, rho1: DensityMatrix) -> ErrorPair:
    """Type-I and type-II errors of a single test operator."""
    arr = t_op.entries if isinstance(t_op, (HermitianOperator, DensityMatrix)) else np.asarray(t_op, dtype=complex)
    w = np.linalg.eigvalsh(arr)
    if w[0] < -1e-10 or w[-1] > 1.0 + 1e-10:
        raise DomainError(
            f"not a valid test: spectrum [{w[0]:.3e}, {w[-1]:.6f}] outside [0,1]"
        )
    alpha = 1.0 - la.inner_real(arr, rho0.entries)
    beta = la.inner_real(arr, rho1.entries)
    return ErrorPair(alpha, beta)


def product_label(labels) -> str:
    labels = list(labels)
    if all(len(s) == 1 for s in labels):
        return "".join(labels)
    return ",".join(labels)


def product_source(src: CQSource, n: int) -> CQSource:
    """The n-fold memoryless extension of a source, over sequences of symbols."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    joint_dim = (src.size * src.d_y) ** n
    if joint_dim > MAX_TOTAL_DIM:
        raise ResourceCapError(
            f"joint dimension (|X| d_y)^n = {joint_dim} exceeds the cap {MAX_TOTAL_DIM}"
        )
    if n == 1:
        return src
    labels, probs, states = [], [], []
    for seq in itertools.product(range(src.size), repeat=n):
        labels.append(product_label(src.alphabet[i] for i in seq))
        probs.append(float(np.prod([src.q_x[i] for i in seq])))
        states.append(DensityMatrix(tensor_all([src.states[i] for i in seq])))
    return CQSource(labels, probs, states)


@dataclass(frozen=True)
class EncodedSource:
    """Message distribution and conditional output blocks after encoding.

    Blocks with probability at most 1e-14 are dropped to avoid 0/0
    conditional states.
    """

    messages: tuple
    p_w: np.ndarray
    states: tuple

    def null_joint(self) -> np.ndarray:
        """Dense block-diagonal matrix of the encoded null hypothesis."""
        return _block_diag([p * s.entries for p, s in zip(self.p_w, self.states)])

    def alt_joint(self, rho1_block: DensityMatrix) -> np.ndarray:
        """Dense block-diagonal matrix of p_w o rho1 (independent alternative)."""
        return _block_diag([p * rho1_block.entries for p in self.p_w])


def _block_diag(blocks) -> np.ndarray:
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for b in blocks:
        d = b.shape[0]
        out[at : at + d, at : at + d] = b
        at += d
    return out


def apply_encoder(src_n: CQSource, enc: StochasticChannel) -> EncodedSource:
    """Push the source through a classical encoder, collecting message blocks."""
    if enc.in_alphabet != src_n.alphabet:
        raise DimensionMismatchError("encoder input alphabet does not match the source")
    weights = src_n.q_x[:, None] * enc.kernel  # (x, w)
    p_all = weights.sum(axis=0)
    messages, probs, states = [], [], []
    for j, m in enumerate(enc.out_alphabet):
        if p_all[j] <= BLOCK_MASS_TOL:
            continue
        block = sum(
            weights[i, j] * src_n.states[i].entries
            for i in range(src_n.size)
            if weights[i, j] > 0.0
        )
        messages.append(m)
        probs.append(float(p_all[j]))
        states.append(DensityMatrix(block / p_all[j]))
    return EncodedSource(tuple(messages), np.asarray(probs), tuple(states))


def message_count(n: int, r1: float) -> int:
    """|W| = max(1, floor(e^(n r1))) with the rate in nats."""
    if r1 <= 0.0:
        return 1
    return max(1, int(math.floor(math.exp(n * r1) + 1e-9)))


def encoder_count(n: int, r1: float, seq_count: int):
    """(|W|, |W|^seq_count): the message-set size at rate ``r1`` and the
    number of deterministic encoders of ``seq_count`` sequences into it.

    Raises a resource-cap error when the encoders exceed the enumeration cap.
    """
    if not math.isfinite(r1):
        raise DomainError(f"rate must be finite; got {r1!r}")
    if n * r1 > math.log(2.0 * ENCODER_ENUM_CAP):
        # |W| > e^(n r1) - 1 is then above the cap, and e^(n r1) may not fit
        # in a float
        raise ResourceCapError(
            f"about e^{n * r1 * seq_count:.6g} encoders exceed the enumeration cap "
            f"{ENCODER_ENUM_CAP}"
        )
    w_size = message_count(n, r1)
    num_encoders = w_size ** seq_count
    if num_encoders > ENCODER_ENUM_CAP:
        raise ResourceCapError(
            f"{num_encoders} encoders exceed the enumeration cap {ENCODER_ENUM_CAP}"
        )
    return w_size, num_encoders


def _beta_for_assignment(assignment, src_n, rho1_entries, eps):
    """Blockwise optimal type-II error of one deterministic encoder."""
    groups = {}
    for i, w in enumerate(assignment):
        groups.setdefault(w, []).append(i)
    null_blocks, alt_blocks = [], []
    for w in sorted(groups):
        members = groups[w]
        p = float(np.sum(src_n.q_x[members]))
        if p <= BLOCK_MASS_TOL:
            continue
        null_blocks.append(sum(src_n.q_x[i] * src_n.states[i].entries for i in members))
        alt_blocks.append(p * rho1_entries)
    null = DensityMatrix(_block_diag(null_blocks))
    alt = DensityMatrix(_block_diag(alt_blocks))
    beta, _ = neyman_pearson_beta(null, alt, eps)
    return beta


def brute_force_beta_distributed(src: CQSource, n: int, r1: float, eps: float):
    """Minimize the distributed type-II error over deterministic encoders.

    Enumerates every map from length-n sequences into a message set of size
    max(1, floor(e^(n r1))) and solves the blockwise testing problem against
    the product alternative.  The result is an upper bound on the true
    infimum, witnessed by the returned encoder; randomized encoders are
    convex mixtures and cannot beat the best deterministic one here.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    if r1 <= 0.0:
        raise DomainError(f"r1 must be positive; got {r1!r}")
    src_n = product_source(src, n)
    w_size, num_encoders = encoder_count(n, r1, src_n.size)
    rho1_entries = tensor_all([src.rho_y] * n).entries if n > 1 else src.rho_y.entries
    assignments = list(itertools.product(range(w_size), repeat=src_n.size))

    betas = [_beta_for_assignment(a, src_n, rho1_entries, eps) for a in assignments]
    best_idx = min(range(len(betas)), key=lambda i: (betas[i], i))
    best_beta = betas[best_idx]
    best_assignment = assignments[best_idx]
    encoder = StochasticChannel.deterministic(
        src_n.alphabet, [str(w) for w in range(w_size)], best_assignment
    )
    record = BoundReport(
        name="brute-force-distributed-beta",
        first_order=-math.log(max(best_beta, 1e-300)) / n,
        constants={
            "beta_min": best_beta,
            "n": n,
            "rate_nats": r1,
            "w_size": w_size,
            "epsilon": eps,
            "num_encoders": num_encoders,
        },
        witnesses={"assignment": best_assignment},
    )
    return best_beta, encoder, record


def expurgate(test: TestFamily, encoded: EncodedSource, rho1_block: DensityMatrix,
              eps_prime: float) -> TestFamily:
    """Zero out the worst messages so every survivor has a per-message bound.

    Messages are reordered so tr[rho1 T_w] is nondecreasing (stable sort,
    ties by original index); the cut point is the earliest position whose
    strict tail carries mass at most eps_prime.  The returned family
    satisfies alpha_new <= alpha_old + eps_prime and, for every retained
    message, tr[rho1 T_w] <= beta_old / eps_prime; both are asserted here.
    """
    if not 0.0 < eps_prime < 1.0:
        raise DomainError(f"eps_prime must lie in (0,1); got {eps_prime!r}")
    if set(test.messages) != set(encoded.messages):
        raise DimensionMismatchError("test and encoded source index different messages")
    msgs = list(encoded.messages)
    p = encoded.p_w
    sigma = {m: s for m, s in zip(encoded.messages, encoded.states)}
    v = np.array([la.inner_real(rho1_block.entries, test.operators[m].entries) for m in msgs])
    order = np.argsort(v, kind="stable")
    sorted_msgs = [msgs[i] for i in order]
    sorted_p = p[order]
    tails = np.concatenate([np.cumsum(sorted_p[::-1])[::-1][1:], [0.0]])
    cut = int(np.argmax(tails <= eps_prime + 1e-15))

    alpha_old = float(
        sum(
            pi * (1.0 - la.inner_real(sigma[m].entries, test.operators[m].entries))
            for m, pi in zip(msgs, p)
        )
    )
    beta_old = float(np.sum(p * v))

    zero = np.zeros_like(rho1_block.entries)
    new_ops = {}
    for pos, m in enumerate(sorted_msgs):
        new_ops[m] = test.operators[m] if pos <= cut else HermitianOperator(zero)
    out = TestFamily(sorted_msgs, new_ops)

    alpha_new = float(
        sum(
            pi * (1.0 - la.inner_real(sigma[m].entries, out.operators[m].entries))
            for m, pi in zip(sorted_msgs, sorted_p)
        )
    )
    if alpha_new > alpha_old + eps_prime + 1e-10:
        raise ValidationError(
            f"expurgation broke the type-I guarantee: {alpha_new!r} > "
            f"{alpha_old!r} + {eps_prime!r}"
        )
    bound = beta_old / eps_prime
    for pos in range(cut + 1):
        if v[order[pos]] > bound + 1e-10:
            raise ValidationError(
                f"expurgation broke the per-message type-II bound at position {pos}: "
                f"{v[order[pos]]!r} > {bound!r}"
            )
    return out
