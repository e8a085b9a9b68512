"""Numerical tolerances, caps, and the thread-count setting.

All logarithms in this package are natural; entropic values are computed in
nats and converted to bits only at display boundaries.
"""

import os

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

#: environment variable naming a worker-thread count (accepted, changes nothing)
THREADS_ENV_VAR = "CQBOUNDS_THREADS"


def thread_count() -> int:
    """The worker-thread setting from ``CQBOUNDS_THREADS`` (default: all cores).

    Suites run single-threaded as stacked arrays, so the setting is accepted
    but changes no output and no work.
    """
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            n = 1
        return max(1, n)
    return max(1, os.cpu_count() or 1)
