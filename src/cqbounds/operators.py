"""Dense Hermitian operators, density matrices, spectral calculus, and
seeded random draws (stacks seed their streams in one vectorized pass).

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import _linalg as la
from .config import EIG_CLIP_TOL, HERMITIAN_TOL, MAX_TOTAL_DIM
from .errors import DomainError, ResourceCapError, ValidationError


def _check_dim(dim: int):
    if dim > MAX_TOTAL_DIM:
        raise ResourceCapError(
            f"dimension {dim} exceeds the configured cap {MAX_TOTAL_DIM}"
        )


def _density_checks(arr: np.ndarray, blocks: bool = False):
    """Trace and spectrum checks of Hermitian matrices (..., d, d), or with
    ``blocks`` of block-diagonal ones given by their blocks (..., B, d, d).

    Each check rejects its first failing member.  Returns the entries, with
    eigenvalues in [-1e-10, 0) clipped to 0 (a new array only if some member
    was clipped), and each member's smallest eigenvalue after clipping.
    """
    tr = np.trace(arr, axis1=-2, axis2=-1).real
    if blocks:
        tr = tr.sum(axis=-1)
    i = la.first_member(np.abs(tr - 1.0) > 1e-10)
    if i is not None:
        raise ValidationError(f"trace {float(tr.flat[i])!r} differs from 1 by more than 1e-10")
    w, v = np.linalg.eigh(arr)
    w_min = w[..., 0]
    i = la.first_member(w_min < -EIG_CLIP_TOL)
    if i is not None:
        raise ValidationError(
            f"smallest eigenvalue {w_min.flat[i]:.3e} below the -1e-10 clip tolerance"
        )
    clip = w_min < 0.0
    if la.first_member(clip) is not None:
        arr = arr.copy()
        arr[clip] = la.hermitize(la.from_spectrum(np.maximum(w[clip], 0.0), v[clip]))
        w_min = np.where(clip, 0.0, w_min)
    return arr, w_min


def density_stack(entries, blocks: bool = False) -> np.ndarray:
    """Validate a stack (..., d, d) of density matrices member by member.

    Applies every check of :class:`DensityMatrix` to each member (Hermiticity
    within 1e-10, the dimension cap, unit trace within 1e-10, eigenvalues
    clipped from [-1e-10, 0)) and returns the symmetrized, clipped stack.
    With ``blocks`` the members are block diagonal, given by their blocks
    (..., B, d, d): the cap holds for B d and the block traces sum to 1.
    """
    arr = la.hermitize(entries, HERMITIAN_TOL)
    _check_dim(arr.shape[-1] * (arr.shape[-3] if blocks else 1))
    return _density_checks(arr, blocks)[0]


class HermitianOperator:
    """A dense complex Hermitian matrix with subsystem-dimension metadata.

    Inputs may deviate from exact Hermiticity by at most 1e-10 in max norm
    and are symmetrized on construction.
    """

    __slots__ = ("entries", "subsystem_dims")

    def __init__(self, entries, subsystem_dims=None):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        arr = la.hermitize(arr, HERMITIAN_TOL)
        dim = arr.shape[0]
        _check_dim(dim)
        if subsystem_dims is None:
            subsystem_dims = (dim,)
        subsystem_dims = tuple(int(d) for d in subsystem_dims)
        if any(d <= 0 for d in subsystem_dims):
            raise ValidationError(f"subsystem dims must be positive, got {subsystem_dims}")
        if int(np.prod(subsystem_dims)) != dim:
            raise ValidationError(
                f"product of subsystem dims {subsystem_dims} != matrix dimension {dim}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "subsystem_dims", subsystem_dims)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def with_subsystems(self, subsystem_dims) -> "HermitianOperator":
        """Same matrix, reinterpreted with a new subsystem layout."""
        return HermitianOperator(self.entries, subsystem_dims)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, subsystems={self.subsystem_dims})"


class DensityMatrix:
    """A unit-trace PSD operator; eigenvalues in [-1e-10, 0) are clipped to 0."""

    __slots__ = ("op", "min_eig")

    def __init__(self, entries, subsystem_dims=None):
        if isinstance(entries, HermitianOperator):
            op = entries if subsystem_dims is None else entries.with_subsystems(subsystem_dims)
        else:
            op = HermitianOperator(entries, subsystem_dims)
        entries, w_min = _density_checks(op.entries)
        if entries is not op.entries:
            op = HermitianOperator(entries, op.subsystem_dims)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "min_eig", float(w_min))

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def subsystem_dims(self):
        return self.op.subsystem_dims

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, subsystems={self.subsystem_dims})"


def _as_array(a) -> np.ndarray:
    return a.entries if isinstance(a, (HermitianOperator, DensityMatrix)) else np.asarray(a, dtype=complex)


def stack_entries(ops) -> np.ndarray:
    """The entries of a sequence of operators as one (N, d, d) array."""
    return np.stack([_as_array(op) for op in ops])


def _as_dims(a):
    if isinstance(a, (HermitianOperator, DensityMatrix)):
        return a.subsystem_dims
    return (np.asarray(a).shape[0],)


def tensor(a, b) -> HermitianOperator:
    """Kronecker product; subsystem layouts concatenate."""
    return HermitianOperator(
        np.kron(_as_array(a), _as_array(b)), _as_dims(a) + _as_dims(b)
    )


def tensor_all(ops) -> HermitianOperator:
    """Kronecker product of a nonempty sequence of operators, left to right."""
    ops = list(ops)
    if not ops:
        raise DomainError("tensor_all needs at least one operator")
    out = _as_array(ops[0])
    dims = _as_dims(ops[0])
    for op in ops[1:]:
        out = np.kron(out, _as_array(op))
        dims = dims + _as_dims(op)
    return HermitianOperator(out, dims)


def partial_trace(a, keep) -> HermitianOperator:
    """Trace out every subsystem not listed in ``keep`` (indices, any order)."""
    keep = [keep] if isinstance(keep, int) else list(keep)
    dims = _as_dims(a)
    reduced = la.ptrace(_as_array(a), dims, keep)
    kept_dims = [dims[k] for k in sorted(set(keep))]
    return HermitianOperator(reduced, kept_dims)


#: numpy's SeedSequence hash constants (a pool of four uint32 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    return np.array(list(itertools.accumulate(range(count), lambda h, _: h * mult & _M32,
                                              initial=init)), dtype=np.uint32)


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """(N, 4) uint64 words of ``SeedSequence.generate_state(4, np.uint64)`` for
    each row of assembled uint32 entropy (N, L): numpy's pool hashing, a
    column of the pool per array operation."""
    n, width = entropy.shape
    a = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, width - 4))

    def hashmix(v, j, k):  # with the k hash constants from the j-th on
        v = (v ^ a[j:j + k]) * a[j + 1:j + k + 1]
        return v ^ v >> 16

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ r >> 16

    pool = np.zeros((n, 4), dtype=np.uint32)
    pool[:, :width] = entropy[:, :4]
    pool = hashmix(pool, 0, 4)
    for src in range(4):  # every word into every other, in numpy's order
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], 4 + 3 * src, 3))
    for src in range(4, width):
        pool = mix(pool, hashmix(entropy[:, src, None], 4 * src, 4))
    b = _hash_constants(_INIT_B, _MULT_B, 8)
    v = (np.tile(pool, 2) ^ b[:8]) * b[1:]
    return (v ^ v >> 16).astype("<u4").view("<u8").astype(np.uint64)


def _uint32_words(values, least: int = 1):
    """Little-endian uint32 words of nonnegative ints as numpy converts them,
    at least ``least`` each: an (N, W) array, zero-padded, and their counts."""
    width = max(least, -(-max(values, default=0).bit_length() // 32))
    obj = np.array(values, dtype=object)
    words = np.stack([obj >> 32 * j & _M32 for j in range(width)], axis=-1).astype(np.uint32)
    return words, np.maximum(least, ((words != 0) * np.arange(1, width + 1)).max(axis=-1))


@functools.cache
def _seed_words_type():
    """A seed sequence holding the words PCG64 asks it for, defined on first
    use: ``numpy.random`` is not on the import path."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words

    return SeedWords


def _generators(entropy, spawn_keys=None) -> list:
    """One Generator per entry, equal to ``np.random.default_rng(
    np.random.SeedSequence(entropy[i], spawn_key=spawn_keys[i]))`` (NEP 19
    fixes that algorithm), all seeded in one vectorized pass; spawn keys have
    one length.  Cheaper than ``default_rng`` from about 20 streams on."""
    fields = [[int(e) for e in entropy]] + [[int(k) for k in col] for col in zip(*spawn_keys or ())]
    # numpy pads the entropy of a spawned sequence to the pool size
    words, counts = zip(*(_uint32_words(f, 4 if i == 0 and len(fields) > 1 else 1)
                          for i, f in enumerate(fields)))
    counts = np.stack(counts, axis=-1)
    group = counts @ 64 ** np.arange(len(fields))  # rows of one word layout
    pcg, gen, seq = np.random.PCG64, np.random.Generator, _seed_words_type()
    out = [None] * len(fields[0])
    for key in np.unique(group).tolist():
        rows = np.flatnonzero(group == key)
        assembled = np.concatenate([w[rows, :c] for w, c in zip(words, counts[rows[0]])], axis=1)
        for r, state in zip(rows.tolist(), _pcg64_words(assembled)):
            out[r] = gen(pcg(seq(state)))
    return out


def _streams(seeds) -> list:
    """Generators for a stack draw: Generators as given (one batch shared by
    several stacks), integer seeds seeded in one ``_generators`` batch."""
    seeds = list(seeds)
    return seeds if seeds and isinstance(seeds[0], np.random.Generator) else _generators(seeds)


def _ginibre(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((2, dim, dim))
    return z[0] + 1j * z[1]


def _ginibre_stack(dim: int, rngs) -> np.ndarray:
    """One complex Gaussian (dim, dim) matrix per Generator."""
    return np.array([_ginibre(rng, dim) for rng in rngs], dtype=complex).reshape(-1, dim, dim)


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices (..., d, d) by QR."""
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the result is a deterministic Haar draw
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _density_entries(dim: int, rngs, min_eig_floor: float) -> np.ndarray:
    """Unvalidated (N, dim, dim) draws of ``random_density``, one per Generator."""
    if dim < 1:
        raise DomainError("dimension must be positive")
    if not 0.0 <= min_eig_floor < 1.0 / dim:
        raise DomainError(
            f"min_eig_floor must lie in [0, 1/dim={1.0 / dim!r}); got {min_eig_floor!r}"
        )
    if dim == 1:
        return np.ones((len(rngs), 1, 1), dtype=complex)
    probs = np.empty((len(rngs), dim))
    g = np.empty((len(rngs), dim, dim), dtype=complex)
    for k, rng in enumerate(rngs):
        probs[k] = rng.dirichlet(np.ones(dim))
        g[k] = _ginibre(rng, dim)
    lam = min_eig_floor + (1.0 - dim * min_eig_floor) * probs
    return la.from_spectrum(lam, _haar_unitaries(g))


def random_density(dim: int, seed: int, min_eig_floor: float = 0.0) -> DensityMatrix:
    """Seeded full-rank density matrix with smallest eigenvalue >= the floor."""
    return DensityMatrix(_density_entries(dim, [np.random.default_rng(seed)], min_eig_floor)[0])


def random_density_stack(dim: int, seeds, min_eig_floor: float = 0.0) -> np.ndarray:
    """``random_density(dim, s, min_eig_floor)`` for each seed (or its
    Generator), as a validated (N, dim, dim) array."""
    return density_stack(_density_entries(dim, _streams(seeds), min_eig_floor))


def random_hermitian(dim: int, seed: int) -> HermitianOperator:
    """Seeded GUE-style Hermitian matrix."""
    g = _ginibre(np.random.default_rng(seed), dim)
    return HermitianOperator((g + g.conj().T) / 2.0)


def _psd_entries(dim: int, rngs, min_eig_floor: float) -> np.ndarray:
    """Unvalidated (N, dim, dim) draws of ``random_psd``, one per Generator."""
    g = _ginibre_stack(dim, rngs)
    return (g @ la.dagger(g)) / dim + min_eig_floor * np.eye(dim)


def random_psd(dim: int, seed: int, min_eig_floor: float = 0.0) -> HermitianOperator:
    """Seeded PSD matrix W W^dagger / dim (+ floor), unnormalized."""
    return HermitianOperator(_psd_entries(dim, [np.random.default_rng(seed)], min_eig_floor)[0])


def random_psd_stack(dim: int, seeds, min_eig_floor: float = 0.0) -> np.ndarray:
    """``random_psd(dim, s, ...)`` entries for each seed (or its Generator),
    as a symmetrized (N, dim, dim) array checked like a HermitianOperator."""
    mat = la.hermitize(_psd_entries(dim, _streams(seeds), min_eig_floor), HERMITIAN_TOL)
    _check_dim(dim)
    return mat


def random_channel_kraus_stack(dim_in: int, dim_out: int, dim_env: int, seeds) -> np.ndarray:
    """``random_channel_kraus`` for each seed (or its Generator), as an
    (N, dim_env, dim_out, dim_in) array."""
    if dim_out * dim_env < dim_in:
        raise DomainError("an isometry needs dim_out >= dim_in")
    rngs = _streams(seeds)
    v = _haar_unitaries(_ginibre_stack(dim_out * dim_env, rngs))[..., :dim_in]
    return v.reshape(len(rngs), dim_env, dim_out, dim_in)


def random_channel_kraus(dim_in: int, dim_out: int, dim_env: int, seed: int):
    """Kraus operators of a seeded channel: a random isometry into
    output x environment followed by tracing out the environment."""
    return list(random_channel_kraus_stack(dim_in, dim_out, dim_env,
                                           [np.random.default_rng(seed)])[0])


def apply_kraus(rho, kraus) -> np.ndarray:
    """sum_i K_i rho K_i^dagger on raw arrays.

    ``rho`` may be a stack (..., d, d) with ``kraus`` of shape
    (..., n_kraus, d_out, d).
    """
    arr = _as_array(rho)
    return sum(k @ arr @ la.dagger(k) for k in np.moveaxis(np.asarray(kraus), -3, 0))
