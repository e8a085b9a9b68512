"""Binary quantum hypothesis testing, classical-quantum sources, classical
encoders, brute-force distributed type-II error, and test expurgation.

Everything past the single-letter source works on stacked arrays: the
n-letter extension is ``product_stack`` (sequence probabilities and product
states, never an n-letter ``CQSource``), encoders are row-stochastic kernel
arrays (a deterministic one is a tuple of message indices, one per
sequence) acting through ``encode_stack`` and
``encoder_rows``/``message_blocks``, and expurgation is ``expurgate_stack``.

The optimal-test solver sweeps the thresholds given by the generalized
eigenvalues of the pencil rho0 - t rho1 and mixes in the boundary eigenspace
with one scalar weight, which exhausts the type-I budget deterministically.
It solves block-diagonal pairs block by block, as direct sums: the classical
register of a classical-quantum state (the sequence x^n, or the message of an
encoder) makes both hypotheses block diagonal, so ``cqbounds beta`` and the
brute-force encoder search never build the (|X| d_y)^n joint matrices.  A
dense pair is the case of one block.  The solver, the brute-force encoder
search and expurgation run on stacks of problems, the pencils and encoder
blocks in steps of at most ``config.STACK_BYTES`` per stacked array; every
member gets the bits a call on it alone gives, and ``neyman_pearson_beta``
is the stack of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .config import (
    BLOCK_MASS_TOL,
    ENCODER_ENUM_CAP,
    MAX_TOTAL_DIM,
    STACK_BYTES,
    SUPPORT_TOL,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    ResourceCapError,
    ValidationError,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    _as_array,
    density_stack,
    stack_entries,
    tensor_all,
)
from .reports import BoundReport


def average_states(q: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_x Q(x) rho_x of stacked sources, q (..., X) and states (..., X, d, d),
    the terms added to 0 in order of x."""
    return sum(q[..., x, None, None] * states[..., x, :, :] for x in range(q.shape[-1]))


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
        if not abs(float(q.sum()) - 1.0) <= 1e-9:  # NaN fails this comparison
            raise ValidationError(f"q_x sums to {float(q.sum())!r}, not 1 (tolerance 1e-9)")
        if np.any(q <= 0.0):
            raise ValidationError("q_x must have full support (all entries > 0)")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValidationError(f"output states live on different dimensions: {sorted(dims)}")
        q.setflags(write=False)
        rho_y = DensityMatrix(average_states(q, stack_entries(states)))
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
        out = np.zeros((k, d, k, d), dtype=complex)
        out[range(k), :, range(k)] = self.q_x[:, None, None] * stack_entries(self.states)
        return DensityMatrix(out.reshape(k * d, k * d), (k, d))

    def independence_alternative(self) -> DensityMatrix:
        """Product of marginals, diag(Q) o rho_avg, on the same layout."""
        k, d = self.size, self.d_y
        out = np.kron(np.diag(self.q_x).astype(complex), self.rho_y.entries)
        return DensityMatrix(out, (k, d))

    def __repr__(self):
        return f"CQSource(|X|={self.size}, d_y={self.d_y}, eta={self.eta:.4g}, gamma={self.gamma:.4g})"


def measurement_stack(arr: np.ndarray, labels=None) -> np.ndarray:
    """Check and clip test operators 0 <= T <= Id, stacked (..., d, d).

    Rejects the first member whose spectrum leaves [0, 1] by more than 1e-10,
    naming it by ``labels`` (one per member in flat order; default its flat
    index), and returns each member rebuilt from its spectrum clipped to
    [0, 1] and symmetrized.
    """
    arr = la.hermitize(arr)
    w, v = np.linalg.eigh(arr)
    lo, hi = w[..., 0], w[..., -1]
    i = la.first_member((lo < -1e-10) | (hi > 1.0 + 1e-10))
    if i is not None:
        label = labels[i] if labels is not None else i
        raise ValidationError(
            f"test operator for message {label!r} has spectrum "
            f"[{lo.flat[i]:.3e}, {hi.flat[i]:.6f}] outside [0,1] (tolerance 1e-10)"
        )
    return la.hermitize(la.from_spectrum(np.clip(w, 0.0, 1.0), v))


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


def _pencil_thresholds(r0: np.ndarray, r1: np.ndarray, kernel: np.ndarray) -> list:
    """Each member's thresholds: 0 and the real, finite, nonnegative
    generalized eigenvalues of all its blocks r0 - t r1 (those in
    [-1e-10, 0) as 0), sorted, one kept per run within 1e-12 (1 + t).

    Members whose r1 blocks have no kernel (``kernel`` False) take them from
    one batched Cholesky reduction r1 = L L^dagger and ``eigvalsh`` of
    L^-1 r0 L^-dagger; the others from ``scipy.linalg.eig`` block by block.
    """
    vals = np.full(r0.shape[:1] + (r0.shape[1] * r0.shape[-1],), -np.inf)
    full = ~kernel
    if full.any():
        inv = np.linalg.inv(np.linalg.cholesky(r1[full]))
        vals[full] = np.linalg.eigvalsh(inv @ r0[full] @ la.dagger(inv)).reshape(-1, vals.shape[1])
    for k in np.flatnonzero(kernel).tolist():
        import scipy.linalg  # the package's one use of scipy, loaded on first need
        z = np.concatenate([scipy.linalg.eig(a, b, right=False) for a, b in zip(r0[k], r1[k])])
        real = np.isfinite(z) & (np.abs(z.imag) <= 1e-8 * (1.0 + np.abs(z.real)))
        vals[k] = np.where(real, z.real, -np.inf)
    out = []
    for row in vals:
        dedup = [0.0]
        for t in np.sort(np.maximum(row[row >= -1e-10], 0.0)).tolist():
            if t - dedup[-1] > 1e-12 * (1.0 + t):
                dedup.append(t)
        out.append(dedup)
    return out


def stack_step(dim: int) -> int:
    """How many dim x dim complex matrices one stacked step holds: as many
    as fit in ``STACK_BYTES``, and at least one."""
    return max(1, STACK_BYTES // (16 * dim * dim))


def _span_weight(cols: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Re sum_j <c_j| mat |c_j> over the columns of contiguous blocks
    (G, d, k), each summed as a call on its block alone sums it."""
    prod = mats @ cols
    np.multiply(cols.conj(), prod, out=prod)
    return prod.reshape(len(cols), -1).sum(axis=-1).real


def _pencil_weights(r0: np.ndarray, r1: np.ndarray, thresholds):
    """Spectral weights of the block pencils r0[i] - t r1[i] (B blocks each)
    for every threshold t in ``thresholds[i]``, diagonalized in batches of at
    most ``stack_step`` blocks.

    The pencils run rank-major (every member's first threshold, then every
    second one, ...), so each member meets its thresholds in their order.
    Yields per batch (owner, v, pos, zero, a0, b0, c1, d1): the member of
    each pencil, its blocks' eigenvectors, the masks of the eigenvalues above
    and within the boundary tolerance 1e-8 max(1, |w|_max) over all blocks,
    and the weights of r0 (a0, b0) and r1 (c1, d1) on those two spans summed
    over the blocks.  Each pencil gets the bits a call on it alone gives.
    """
    counts = [len(row) for row in thresholds]
    rank = np.concatenate([np.arange(c) for c in counts]) if counts else np.zeros(0, int)
    member = np.repeat(np.arange(len(counts)), counts)
    ts = np.array([t for row in thresholds for t in row], dtype=float)
    order = np.lexsort((member, rank))
    member, ts = member[order], ts[order]
    blocks, dim = r0.shape[1], r0.shape[-1]
    step = max(1, stack_step(dim) // blocks)
    for lo in range(0, len(ts), step):
        m, t = member[lo:lo + step], ts[lo:lo + step]
        if (m == m[0]).all():  # one member: views that broadcast, not copies
            p0, p1 = r0[m[0]][None], r1[m[0]][None]
        else:
            p0, p1 = r0[m], r1[m]
        w, v = np.linalg.eigh(p0 - t[:, None, None, None] * p1)
        tol_b = 1e-8 * np.maximum(1.0, np.abs(w).max(axis=(-2, -1)))[:, None, None]
        pos, zero = w > tol_b, np.abs(w) <= tol_b
        # eigenvalues ascend, so the positive span is the last n_pos columns
        # and the boundary span the n_zero columns before them; blocks with
        # equal counts are weighted together on contiguous copies of the
        # spans, as the single call's v[:, mask] copies them
        n_pos, n_zero = pos.sum(axis=-1).ravel(), zero.sum(axis=-1).ravel()
        flat_v = v.reshape(-1, dim, dim)
        flat0, flat1 = (np.broadcast_to(p, v.shape).reshape(flat_v.shape) for p in (p0, p1))
        weights = np.zeros((4, len(flat_v)))
        key = n_pos * (dim + 1) + n_zero
        for g in np.unique(key).tolist():
            idx = np.flatnonzero(key == g)
            k_pos, k_zero = divmod(g, dim + 1)
            whole = len(idx) == len(key)
            vg, g0, g1 = (flat_v, flat0, flat1) if whole else (flat_v[idx], flat0[idx], flat1[idx])
            spans = (vg[..., dim - k_pos:], vg[..., dim - k_pos - k_zero:dim - k_pos])
            for row, (cols, mats) in enumerate(itertools.product(spans, (g0, g1))):
                if cols.shape[-1]:
                    weights[row, idx] = _span_weight(np.ascontiguousarray(cols), mats)
        a0, c1, b0, d1 = weights.reshape(4, len(t), blocks).sum(axis=-1)
        yield m, v, pos, zero, a0, b0, c1, d1


def _np_sweep(r0: np.ndarray, r1: np.ndarray, eps, tests: bool = False):
    """The threshold sweep of ``neyman_pearson_beta`` over stacks (N, B, d, d)
    of block-diagonal pairs, each member given by its B blocks (B = 1 for
    dense pairs) and solved as their direct sum.

    ``eps`` is one budget or one per member.  Candidates are taken in the
    single call's order, so each member gets its bits.  Returns the list of
    betas and, with ``tests``, the list of optimal tests as blocks (B, d, d)
    (else None).
    """
    eps = np.asarray(eps, dtype=float)
    i = la.first_member(~((eps >= 0.0) & (eps < 1.0)))
    if i is not None:
        raise DomainError(f"eps must lie in [0,1); got {float(eps.flat[i])!r}")
    if r0.shape != r1.shape:
        raise DimensionMismatchError(f"hypothesis dims {r0.shape[-1]} vs {r1.shape[-1]}")
    n = len(r0)
    eps = np.broadcast_to(eps, (n,))
    # tests supported on the kernel of rho1 cost no beta; the kernel is
    # judged on the scale of the member's largest rho1 eigenvalue
    w1, v1 = np.linalg.eigh(r1)
    on_kernel = w1 <= SUPPORT_TOL * np.maximum(1.0, w1[..., -1].max(axis=-1))[:, None, None]
    kernel = on_kernel.any(axis=(-2, -1))
    thresholds = _pencil_thresholds(r0, r1, kernel)
    best, found = [None] * n, [None] * n

    def improves(k, beta):
        """Record a candidate; True when its test is wanted and kept."""
        beta = max(0.0, min(1.0, beta))
        if best[k] is None or beta < best[k] - 1e-15:
            best[k] = beta
            return tests
        return False

    for owner, v, pos, zero, a0, b0, c1, d1 in _pencil_weights(r0, r1, thresholds):
        slack = 1.0 - eps[owner] - a0
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = slack / b0
        flat = slack <= 1e-12
        mixed = ~flat & (b0 > 1e-14) & (frac <= 1.0 + 1e-9)
        x = np.where(mixed, np.minimum(1.0, frac), 0.0)
        betas, owner = (c1 + x * d1).tolist(), owner.tolist()
        for j in np.flatnonzero(flat | mixed).tolist():
            if improves(owner[j], betas[j]):
                # per block: the projector onto the positive span plus x
                # times the one onto the boundary span
                found[owner[j]] = la.from_spectrum(pos[j] + x[j] * zero[j], v[j])

    # limiting threshold: the support of rho0 inside the kernel of rho1
    for k in np.flatnonzero(kernel).tolist():
        cols = []
        for r0b, vb, kb in zip(r0[k], v1[k], on_kernel[k]):
            ker = vb[:, kb]
            wk, vk = np.linalg.eigh(la.hermitize(ker.conj().T @ r0b @ ker, tol=1e-9))
            cols.append(ker @ vk[:, wk > 1e-12])
        type_one, type_two = (sum(float(_span_weight(c[None], m[None])[0])
                                  for c, m in zip(cols, mats)) for mats in (r0[k], r1[k]))
        if 1.0 - type_one <= eps[k] + 1e-12 and improves(k, type_two):
            found[k] = np.stack([c @ c.conj().T for c in cols])

    if any(b is None for b in best):
        # unreachable: t = 0 keeps the support of rho0, whose type-I error is 0
        raise DomainError("no feasible threshold test found")
    return best, found if tests else None


def neyman_pearson_beta(rho0: DensityMatrix, rho1: DensityMatrix, eps: float):
    """Minimal type-II error at type-I budget ``eps`` over threshold tests.

    Sweeps t over the generalized eigenvalues of the pencil rho0 - t rho1;
    each candidate test is the projector onto the strictly positive part plus
    one scalar fraction x of the boundary eigenspace, with x chosen so the
    type-I error equals eps exactly whenever that lowers beta.  Returns
    (beta, test).
    """
    betas, tests = _np_sweep(rho0.entries[None, None], rho1.entries[None, None], eps, tests=True)
    return betas[0], HermitianOperator(la.hermitize(tests[0][0], tol=1e-9), rho0.subsystem_dims)


def neyman_pearson_beta_stack(r0: np.ndarray, r1: np.ndarray, eps) -> np.ndarray:
    """The beta of ``neyman_pearson_beta`` for each pair of density-matrix
    entries in stacks (N, d, d), or of block-diagonal density matrices given
    by their blocks (N, B, d, d), with one budget ``eps`` or one per pair."""
    if r0.ndim == 3:
        r0, r1 = r0[:, None], r1[:, None]
    return np.array(_np_sweep(r0, r1, eps)[0], dtype=float)


def _test_entries(t_op) -> np.ndarray:
    """The entries of one test operator; a DomainError unless its spectrum
    lies in [0, 1] within 1e-10."""
    arr = _as_array(t_op)
    w = np.linalg.eigvalsh(arr)
    if w[0] < -1e-10 or w[-1] > 1.0 + 1e-10:
        raise DomainError(
            f"not a valid test: spectrum [{w[0]:.3e}, {w[-1]:.6f}] outside [0,1]"
        )
    return arr


def errors_of_test(t_op, rho0: DensityMatrix, rho1: DensityMatrix) -> ErrorPair:
    """Type-I and type-II errors of a single test operator."""
    arr = _test_entries(t_op)
    if not arr.shape == rho0.entries.shape == rho1.entries.shape:
        raise DimensionMismatchError(
            f"test dims {arr.shape[0]} vs hypothesis dims {rho0.dim} and {rho1.dim}"
        )
    alpha = 1.0 - la.inner_real(arr, rho0.entries)
    beta = la.inner_real(arr, rho1.entries)
    return ErrorPair(alpha, beta)


def check_product_dim(src: CQSource, n: int):
    """Reject n < 1 and n-letter joint dimensions (|X| d_y)^n above the cap."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    joint_dim = (src.size * src.d_y) ** n
    if joint_dim > MAX_TOTAL_DIM:
        raise ResourceCapError(
            f"joint dimension (|X| d_y)^n = {joint_dim} exceeds the cap {MAX_TOTAL_DIM}"
        )


def product_stack(q: np.ndarray, states: np.ndarray, n: int):
    """The n-fold memoryless extensions of stacked sources.

    Maps q (..., X) and states (..., X, d, d) to the sequence probabilities
    (..., X^n) and the unvalidated product states (..., X^n, d^n, d^n),
    sequences in lexicographic order, each product state with the bits
    ``tensor_all`` gives its factors.
    """
    seqs = list(itertools.product(range(q.shape[-1]), repeat=n))
    probs = np.stack([np.prod(q[..., list(seq)], axis=-1) for seq in seqs], axis=-1)
    mats = [functools.reduce(la.kron_pairs, (states[..., i, :, :] for i in seq)) for seq in seqs]
    return probs, np.stack(mats, axis=-3)


def message_blocks(weights: np.ndarray, mass: np.ndarray, states: np.ndarray, owner=None):
    """The message blocks of stacked encoders.

    Row p of ``weights`` (P, X) holds Q(x) E(w|x) of one (encoder, message)
    pair and ``mass`` (P,) its probability; ``states`` (X, d, d) holds the
    source states, or (S, X, d, d) one set per source, row p reading source
    ``owner[p]``.  Rows of mass at most ``BLOCK_MASS_TOL`` are dropped.
    Returns the kept row indices and their unnormalized blocks
    sum_x Q(x) E(w|x) rho_x over the x of positive weight, the terms added to
    0 in order of x.
    """
    kept = np.flatnonzero(mass > BLOCK_MASS_TOL)
    w = weights[kept]
    out = np.zeros((len(kept),) + states.shape[-2:], dtype=complex)
    for x in range(w.shape[1]):
        rows = np.flatnonzero(w[:, x] > 0.0)
        term = states[x] if owner is None else states[owner[kept[rows]], x]
        out[rows] += w[rows, x, None, None] * term
    return kept, out


def encode_stack(q: np.ndarray, states: np.ndarray, kernels: np.ndarray):
    """Push stacked sources q (N, X), states (N, X, d, d) through classical
    encoder kernels (N, X, W), collecting message blocks.

    Returns one row per kept (source, message) pair, sources in order and
    each source's messages in kernel-column order: the source and message
    indices, the message probabilities and the unvalidated conditional
    states (P, d, d), blocks as ``message_blocks`` sums and drops them.
    """
    weights = q[..., None] * kernels  # (N, x, w)
    p_all = weights.sum(axis=-2)
    w_size = kernels.shape[-1]
    kept, blocks = message_blocks(
        np.swapaxes(weights, -1, -2).reshape(-1, weights.shape[-2]),
        p_all.reshape(-1),
        states,
        np.repeat(np.arange(len(q)), w_size),
    )
    p = p_all.reshape(-1)[kept]
    return kept // w_size, kept % w_size, p, blocks / p[:, None, None]


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


def encoder_chunks(w_size: int, x_size: int, n: int, dim: int):
    """The least deterministic encoder of the |X|^n sequences (lexicographic)
    into ``w_size`` messages in each orbit of the site permutations and
    message relabellings, which leave beta and theta of an i.i.d. source
    unchanged, in lexicographic order, in lists of one ``stack_step`` of
    block-diagonal states of dimension min(w_size, |X|^n) dim.

    Orderly generation (Read 1978; McKay, J. Algorithms 26, 1998): the
    restricted-growth strings (messages numbered in order of first use) are
    built column by column, and one is kept when no site-permuted image,
    renumbered so, is smaller.
    """
    seqs = np.array(list(itertools.product(range(x_size), repeat=n)))
    rgs = np.zeros((1, 0), dtype=np.int8)
    for _ in range(len(seqs)):
        counts = np.minimum(rgs.max(axis=1, initial=-1) + 1, w_size - 1) + 1
        tail = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rgs = np.column_stack([np.repeat(rgs, counts, axis=0), tail.astype(np.int8)])
    # each string as its base-k number, k = min(w_size, |X|^n), orders
    # strings of one length lexicographically; k^(|X|^n) <= the encoder cap
    labels = np.arange(min(w_size, len(seqs)))
    powers = len(labels) ** np.arange(len(seqs) - 1, -1, -1, dtype=np.int64)
    own, keep = rgs @ powers, np.ones(len(rgs), dtype=bool)
    for perm in itertools.permutations(range(n)) if len(rgs) > 1 else ():  # |W| = 1: one orbit
        image = rgs[:, np.ravel_multi_index(seqs[:, perm].T, (x_size,) * n)]
        used = image[..., None] == labels
        first = np.where(used.any(axis=1), used.argmax(axis=1), len(seqs))
        renumber = np.argsort(np.argsort(first, axis=1, kind="stable"), axis=1)
        keep &= np.take_along_axis(renumber, image.astype(np.intp), axis=1) @ powers >= own
    reps = rgs[keep].tolist()
    step = stack_step(min(w_size, len(seqs)) * dim)
    for lo in range(0, len(reps), step):
        yield [tuple(a) for a in reps[lo:lo + step]]


def encoder_rows(assignments, q: np.ndarray):
    """The (encoder, message) rows of deterministic encoders, given as tuples
    of message indices, one per sequence of probability ``q``: each row's
    encoder, its mass and its weights Q(x) E(w|x) (the input of
    ``message_blocks``), encoders in order and messages ascending."""
    a = np.asarray(assignments)
    ordered = np.sort(a, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    enc = np.nonzero(first)[0]
    members = a[enc] == ordered[first][:, None]
    # each mass sums its members' Q(x) alone, as np.sum(q[members]) does
    mass = la.row_sums(np.broadcast_to(q, members.shape), members)
    return enc, mass, np.where(members, q, 0.0)


def _encoder_betas(assignments, q: np.ndarray, states: np.ndarray, rho1_entries: np.ndarray,
                   eps: float) -> list:
    """Blockwise optimal type-II error of each deterministic encoder.

    ``assignments`` lists encoders as tuples of message indices, one per
    sequence; ``q`` and ``states`` hold the sequences' probabilities and
    states.  Each encoder's blocks, the sums of Q(x) rho_x over the
    sequences it sends to one message (those of mass at most 1e-14
    dropped), in increasing message order, form its null and p_w rho1 its
    alternative; encoders with equally many blocks are solved as one stack.
    """
    enc, mass, weights = encoder_rows(assignments, q)
    kept, null_blocks = message_blocks(weights, mass, states)
    enc, mass = enc[kept], mass[kept]
    alt_blocks = mass[:, None, None] * rho1_entries
    counts = np.bincount(enc, minlength=len(assignments))
    betas = [None] * len(assignments)
    d = rho1_entries.shape[-1]
    for b in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == b)
        sel = np.isin(enc, rows)
        null = density_stack(null_blocks[sel].reshape(len(rows), b, d, d), blocks=True)
        alt = density_stack(alt_blocks[sel].reshape(len(rows), b, d, d), blocks=True)
        for i, beta in zip(rows.tolist(), _np_sweep(null, alt, eps)[0]):
            betas[i] = beta
    return betas


def _beta_for_assignment(assignment, q, states, rho1_entries, eps):
    """Blockwise optimal type-II error of one deterministic encoder (the
    stack of one of ``_encoder_betas``; perfbench's tracer wraps this name)."""
    return _encoder_betas([assignment], q, states, rho1_entries, eps)[0]


def brute_force_beta_distributed(src: CQSource, n: int, r1: float, eps: float):
    """Minimize the distributed type-II error over deterministic encoders.

    Covers every map from length-n sequences into a message set of size
    max(1, floor(e^(n r1))) and solves the blockwise testing problem against
    the product alternative.  The result is an upper bound on the true
    infimum; randomized encoders are convex mixtures and cannot beat the best
    deterministic one here.  Relabelling the messages or permuting the sites
    of the i.i.d. source leaves beta unchanged, so one encoder per orbit is
    solved (``encoder_chunks``); ``num_encoders`` counts the maps covered.
    Encoders are solved in stacks of at most ``STACK_BYTES`` of
    block-diagonal states, read from the unvalidated ``product_stack``.
    Returns (beta, record); the record's witness ``assignment`` is the least
    member of the first orbit, in lexicographic order, with the smallest
    computed beta: members of one orbit, whose betas tie up to rounding, are
    never compared, so their last bits cannot pick it.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0,1); got {eps!r}")
    if r1 <= 0.0:
        raise DomainError(f"r1 must be positive; got {r1!r}")
    check_product_dim(src, n)
    q_n, states_n = product_stack(src.q_x, stack_entries(src.states), n)
    w_size, num_encoders = encoder_count(n, r1, len(q_n))
    rho1_entries = tensor_all([src.rho_y] * n).entries if n > 1 else src.rho_y.entries
    best_beta, best_assignment = None, None
    for chunk in encoder_chunks(w_size, src.size, n, states_n.shape[-1]):
        for assignment, beta in zip(chunk, _encoder_betas(chunk, q_n, states_n, rho1_entries, eps)):
            if best_beta is None or beta < best_beta:
                best_beta, best_assignment = beta, assignment
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
    return best_beta, record


def expurgate_stack(ops: np.ndarray, p: np.ndarray, sigma: np.ndarray, rho1: np.ndarray,
                    eps_prime) -> tuple:
    """Zero out the worst messages of stacked test families of k messages
    each, so every survivor has a per-message bound.

    Messages are reordered so tr[rho1 T_w] is nondecreasing (stable sort,
    ties by original index); the cut point is the earliest position whose
    strict tail carries mass at most eps_prime.  The new family satisfies
    alpha_new <= alpha_old + eps_prime and, for every retained message,
    tr[rho1 T_w] <= beta_old / eps_prime; both are asserted here.

    ``ops`` and ``sigma`` (..., k, d, d) hold each family's checked test
    operators and conditional states in message order, ``p`` (..., k) the
    message probabilities, ``rho1`` (..., d, d) the alternative and
    ``eps_prime`` one budget or one per family.  Returns the new message
    order (..., k) and the expurgated operators (..., k, d, d) in that
    order, each family with the bits it gets alone; raises for the first
    family whose budget lies outside (0, 1) or that breaks a guarantee.
    """
    eps_prime = np.asarray(eps_prime, dtype=float)
    i = la.first_member(~((eps_prime > 0.0) & (eps_prime < 1.0)))
    if i is not None:
        raise DomainError(f"eps_prime must lie in (0,1); got {float(eps_prime.flat[i])!r}")
    v = la.inner_real(rho1[..., None, :, :], ops)
    order = np.argsort(v, axis=-1, kind="stable")
    sorted_p = np.take_along_axis(p, order, axis=-1)
    sorted_v = np.take_along_axis(v, order, axis=-1)
    tails = np.cumsum(sorted_p[..., ::-1], axis=-1)[..., ::-1]
    tails = np.concatenate([tails[..., 1:], np.zeros(tails.shape[:-1] + (1,))], axis=-1)
    cut = np.argmax(tails <= eps_prime[..., None] + 1e-15, axis=-1)

    k = p.shape[-1]
    alpha_old = sum(p[..., j] * (1.0 - la.inner_real(sigma[..., j, :, :], ops[..., j, :, :]))
                    for j in range(k))
    beta_old = np.sum(p * v, axis=-1)

    kept = np.arange(k) <= cut[..., None]
    by_order = order[..., None, None]
    new_ops = measurement_stack(
        np.where(kept[..., None, None], np.take_along_axis(ops, by_order, axis=-3), 0.0)
    )
    sorted_sigma = np.take_along_axis(sigma, by_order, axis=-3)
    alpha_new = sum(sorted_p[..., j] * (1.0 - la.inner_real(sorted_sigma[..., j, :, :],
                                                            new_ops[..., j, :, :]))
                    for j in range(k))
    type_one = alpha_new > alpha_old + eps_prime + 1e-10
    bound = beta_old / eps_prime
    over = kept & (sorted_v > bound[..., None] + 1e-10)
    i = la.first_member(type_one | over.any(axis=-1))
    if i is not None and np.ravel(type_one)[i]:
        raise ValidationError(
            f"expurgation broke the type-I guarantee: {float(np.ravel(alpha_new)[i])!r} > "
            f"{float(np.ravel(alpha_old)[i])!r} + "
            f"{float(np.broadcast_to(eps_prime, np.shape(alpha_new)).flat[i])!r}"
        )
    if i is not None:
        pos = int(np.argmax(over.reshape(-1, k)[i]))
        raise ValidationError(
            f"expurgation broke the per-message type-II bound at position {pos}: "
            f"{sorted_v.reshape(-1, k)[i, pos]!r} > {float(np.ravel(bound)[i])!r}"
        )
    return order, new_ops

