"""Random high-dimensional tensor-network states on the torus, their spin-model
second moments, polyomino combinatorics, and gradient-variance experiments."""

from .bounds import (
    BoundReport,
    global_variance_bound,
    global_variance_ratio,
    norm_excess_bound,
    onsite_floor_prefactors,
)
from .errors import DegenerateStateError, ResourceLimitError
from .lattice import LatticeSpec
from .losses import (
    GLOBAL_NORMALIZED,
    GLOBAL_PURE,
    LOCAL_NORMALIZED,
    LOCAL_UNNORMALIZED,
    LossSpec,
    gradient_map,
    loss_value,
    plus_projector,
    plus_target,
    traceless_observable,
)
from .polyomino import (
    Polyomino,
    PolyominoCounts,
    directed_gf,
    enumerate_directed,
    enumerate_toric,
    series_coefficients,
    stats,
    toric_stats,
    toric_to_plane,
    verify_decomposition,
)
from .spinmodel import (
    IsingCouplings,
    WeightTable,
    exact_partition_function,
    global_loss_weights,
    mc_second_moment,
    norm_weights,
    two_layer_site_weight,
)
from .states import (
    TNState,
    build_state,
    load_state,
    local_expectation,
    local_tensor,
    norm_squared,
    overlap,
    save_state,
    to_statevector,
)
from .tensors import (
    SecondMomentWeights,
    haar_unitary,
    random_hermitian,
    second_moment_channel,
)
from .variance import (
    VarianceReport,
    distance_profile,
    variance_scan,
)

__version__ = "0.1.0"
