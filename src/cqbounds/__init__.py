"""Numerics for entropic quantities, functional-inequality margins, and
finite-blocklength strong-converse bounds of small classical-quantum systems.

Everything computes in nats; the CLI converts to bits on request.
"""

import ctypes as _ctypes
import glob as _glob
import importlib.util as _importlib_util
import os as _os

# small dense problems: pin BLAS to one thread, whatever the environment says,
# so results do not depend on the ambient thread configuration.  OpenBLAS reads
# the variables once, when it loads, so the OpenBLAS copies bundled with numpy
# and scipy (found, not imported) are also set at run time, in case numpy was
# imported first
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ[_var] = "1"
for _pkg in ("numpy", "scipy"):
    _site = _os.path.dirname(_importlib_util.find_spec(_pkg).submodule_search_locations[0])
    for _path in _glob.glob(_os.path.join(_site, _pkg + ".libs", "libscipy_openblas*.so")):
        for _setter in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            getattr(_ctypes.CDLL(_path), _setter, lambda _n: None)(1)

from .bottleneck import (  # noqa: E402
    DeltaInstance,
    TypicalSet,
    continuity_margin,
    delta,
    delta_grid_value,
    delta_star,
    delta_variational_value,
    phi,
    single_letter_gap,
    typical_set,
)
from .bounds import (  # noqa: E402
    bottleneck_sup_constrained,
    image_size_bound_i,
    image_size_bound_ii,
    image_size_constant,
    k_epsilon,
    sc_bound_stein,
    source_coding_bound,
    source_coding_first_order,
    source_conditional_output_entropy,
    source_entropy,
    source_mutual_information,
    theta_n_lower,
    verify_key_inequality,
)
from .entropy import (  # noqa: E402
    fidelity,
    relative_entropy,
    relative_entropy_variational_value,
    renyi_relative_entropy,
    von_neumann_entropy,
)
from .errors import (  # noqa: E402
    CQBoundsError,
    DimensionMismatchError,
    DomainError,
    PreconditionError,
    ResourceCapError,
    ValidationError,
)
from .hyptest import (  # noqa: E402
    CQSource,
    ErrorPair,
    brute_force_beta_distributed,
    errors_of_test,
    message_count,
    neyman_pearson_beta,
)
from .model_io import load_model, save_model  # noqa: E402
from .operators import (  # noqa: E402
    DensityMatrix,
    HermitianOperator,
    partial_trace,
    random_density,
    random_hermitian,
    random_psd,
    tensor,
    tensor_all,
)
from .reports import BoundReport  # noqa: E402
from .semigroup import (  # noqa: E402
    InequalityMargin,
    check_alt,
    check_reverse_alt,
    check_reverse_holder,
    check_rhc,
    psi_map,
    psi_map_sites,
    rhc_time_threshold,
    schatten_norm,
    tensor_depolarize,
    weighted_lp_norm,
)

__version__ = "0.1.0"
