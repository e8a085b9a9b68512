"""Numerics for entropic quantities, functional-inequality margins, and
finite-blocklength strong-converse bounds of small classical-quantum systems.

Everything computes in nats; ``EntropyValue`` carries a derived bits view.
"""

import os as _os

# small dense problems: keep BLAS single-threaded so results do not depend on
# the ambient thread configuration
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .bottleneck import (  # noqa: E402
    ChannelWithPosterior,
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
    fq_point,
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
    stein_independence_objective,
    theta_n_lower,
    verify_key_inequality,
)
from .entropy import (  # noqa: E402
    EntropyValue,
    binary_entropy,
    classical_kl,
    conditional_entropy,
    fidelity,
    mutual_information,
    relative_entropy,
    relative_entropy_variational_value,
    renyi_complement,
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
    EncodedSource,
    ErrorPair,
    StochasticChannel,
    TestFamily,
    apply_encoder,
    brute_force_beta_distributed,
    errors_of_test,
    expurgate,
    message_count,
    neyman_pearson_beta,
    product_source,
    tensor_channels,
)
from .model_io import load_model, save_model  # noqa: E402
from .operators import (  # noqa: E402
    DensityMatrix,
    HermitianOperator,
    eig_hermitian,
    matrix_function,
    partial_trace,
    random_density,
    random_hermitian,
    random_isometry,
    random_psd,
    tensor,
    tensor_all,
    tensor_density,
)
from .reports import BoundReport  # noqa: E402
from .semigroup import (  # noqa: E402
    InequalityMargin,
    SemigroupSpec,
    check_alt,
    check_reverse_alt,
    check_reverse_holder,
    check_rhc,
    depolarize_heisenberg,
    depolarize_schrodinger,
    psi_map,
    psi_map_sites,
    rhc_time_threshold,
    schatten_norm,
    tensor_depolarize,
    weighted_lp_norm,
)

__version__ = "0.1.0"
