"""somcell: self-organizing-map toolkit for machine-part cell formation.

Train a hexagonal map on a binary part-machine incidence matrix, read the
cluster structure off the map, and turn it into machine cells and part
families with exact quality scores and SVG visualizations.
"""

from .cells import (
    assign_machines,
    assign_parts,
    build_view,
    cluster_basis,
    cluster_map,
    form_cells,
    polish,
)
from .incidence import (
    BlockDiagonalView,
    IncidenceMatrix,
    MatrixFormatError,
    load_matrix,
    load_problem1,
    parse_matrix,
    render_block_diagonal,
)
from .metrics import (
    BlockCounts,
    CellAssignment,
    GroupingScore,
    OracleSizeError,
    count_blocks,
    grouping_efficacy,
    oracle_best_assignment,
    score,
)
from .som import (
    MapGrid,
    Phase,
    SomModel,
    TrainingSchedule,
    default_grid,
    default_schedule,
    init_codebook,
    load_model,
    quantization_error,
    save_model,
    train,
)
from .viz import (
    ComponentPlane,
    HitHistogram,
    Projection,
    UMatrix,
    component_planes,
    compute_hits,
    compute_umatrix,
    export_scatter_data,
    export_svg,
    pca_project,
    unit_cells_from_hits,
)

__version__ = "0.1.0"

__all__ = [
    "BlockCounts",
    "BlockDiagonalView",
    "CellAssignment",
    "ComponentPlane",
    "GroupingScore",
    "HitHistogram",
    "IncidenceMatrix",
    "MapGrid",
    "MatrixFormatError",
    "OracleSizeError",
    "Phase",
    "Projection",
    "SomModel",
    "TrainingSchedule",
    "UMatrix",
    "assign_machines",
    "assign_parts",
    "build_view",
    "cluster_basis",
    "cluster_map",
    "component_planes",
    "compute_hits",
    "compute_umatrix",
    "count_blocks",
    "default_grid",
    "default_schedule",
    "export_scatter_data",
    "export_svg",
    "form_cells",
    "grouping_efficacy",
    "init_codebook",
    "load_matrix",
    "load_model",
    "load_problem1",
    "oracle_best_assignment",
    "parse_matrix",
    "pca_project",
    "polish",
    "quantization_error",
    "render_block_diagonal",
    "save_model",
    "score",
    "train",
    "unit_cells_from_hits",
]
