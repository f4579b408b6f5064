"""Cell-topology analysis toolkit: width/depth metrics, variant sampling,
desk-scale convergence experiments, landscape surfaces, and linear-cell
smoothness/variance checks."""

__version__ = "0.1.0"

from .genotype import (
    CellGenotype,
    NodeSpec,
    OpSpec,
    adapt_to_widest_shallowest,
    load_fixture,
    load_genotype,
    save_genotype,
)
from .metrics import cell_depth, cell_width, extremal_width_depth
from .sampler import (
    count_connection_variants,
    sample_connection_variant,
    sample_operation_variant,
    sample_variants,
)
from .linear_theory import (
    LinearCellModel,
    grad_factors,
    linear_cell,
    spectral_norm,
    theory_report,
    verify_block_smoothness,
    verify_gradient_variance,
)
from .network import CellNetwork, NetworkConfig
from .data import Dataset, DatasetSpec, make_dataset
from .training import (
    TrainTrace,
    compare_convergence,
    train,
)
from .landscape import (
    Surface,
    export_grid,
    gradient_variance_surface,
    grid_coordinates,
    loss_surface,
    sample_directions,
)
