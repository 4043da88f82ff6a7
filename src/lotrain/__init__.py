"""Locally orthogonal training design for dense cloud radio access networks.

Pipeline: draw a layout, associate users to RRHs inside Chebyshev balls,
color the resulting conflict graph, hand each color an orthonormal pilot row,
estimate channels per RRH by MMSE, and score the design by a throughput lower
bound. The training length equals the number of colors, which concentrates at
Theta(ln K) when the ball radius tracks the user density.
"""

import os
import sys

# One BLAS thread per process unless the user set one (too late once numpy is
# loaded): CSV bytes do not depend on the core count, --workers is the only
# parallelism, and spawned workers inherit the setting. run_experiment warns
# when numpy came first without that setting.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_PINNED = "numpy" not in sys.modules
if _BLAS_PINNED:
    for _var in _BLAS_VARS:
        os.environ.setdefault(_var, "1")
    del _var

from .association import AssociationMap, refine, sparsify
from .channel import (
    ChannelRealization,
    EstimationResult,
    data_power_coefficients,
    generate_channel,
    interference_variance,
    mmse_estimate,
    snr_db_to_noise_power,
    throughput_lower_bound,
)
from .coloring import Coloring, dsatur
from .errors import ConsistencyError, ParameterError, TrainingLengthError
from .experiments import (
    ExperimentConfig,
    config_from_mapping,
    config_hash,
    emit_csv,
    load_config,
    run_experiment,
)
from .geometry import NetworkLayout, dist_linf, generate_layout, user_density
from .graphs import (
    ConflictGraph,
    build_conflict_graph,
    build_proximity_graph,
    exact_chromatic_number,
    find_coloring,
    is_subgraph,
    max_degree,
)
from .pilots import PilotBook, build_pilot_book, check_local_orthogonality, dft_rows
from .scaling import (
    chromatic_scaling_bound,
    degree_scaling_bound,
    poisson_rate_function,
    poisson_rate_inverse,
    radius_for_rho,
)

__version__ = "0.1.0"
