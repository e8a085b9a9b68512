"""Numerical tolerances and caps.

All logarithms in this package are natural; entropic values are computed in
nats and converted to bits only at display boundaries.
"""

#: max absolute deviation from Hermiticity accepted at construction
HERMITIAN_TOL = 1e-10

#: eigenvalues in [-EIG_CLIP_TOL, 0) are clipped to 0 for density matrices
EIG_CLIP_TOL = 1e-10

#: spectral support threshold for pseudo-log / pseudo-inverse / pseudo-power
SUPPORT_TOL = 1e-12

#: squared overlap with a kernel above which a support violation is declared
KERNEL_OVERLAP_TOL = 1e-9

#: largest dense matrix dimension the package will materialize
MAX_TOTAL_DIM = 1024

#: cap on the number of deterministic encoders enumerated by brute force
ENCODER_ENUM_CAP = 2_000_000

#: cap on |alphabet|**n for exhaustive typical-set enumeration
TYPICAL_ENUM_CAP = 1_000_000

#: probability mass below which an encoded block is dropped
BLOCK_MASS_TOL = 1e-14

#: bytes of dense matrices (count x dim^2 complex entries) one batched step may
#: hold: the Neyman-Pearson pencils, the encoder blocks of the brute-force
#: search, and the block of n-letter product states behind Delta (its other
#: sites are contracted one at a time); a larger matrix runs alone
STACK_BYTES = 1 << 16


def thread_count() -> int:
    """Threads the package computes on: 1.  Suites run as stacked arrays, and
    importing ``cqbounds`` sets ``OPENBLAS_NUM_THREADS`` (and the MKL/OpenMP
    equivalents) to 1 whatever the environment says."""
    return 1
