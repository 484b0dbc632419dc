"""prefkit: turn binary preference surveys into fixed-size item kits.

Two clustering pipelines over an n x m 0/1 survey matrix: damped k-means with
silhouette sweeps, and truncated-SVD sign clustering.  Either yields one kit
per cluster; users are then reassigned to their lowest-loss kit and the
dissatisfaction is reported per kit under normal and exponential averaging.
"""

from types import ModuleType as _ModuleType

from .assignment import (
    Assignment,
    ClusterLosses,
    LossReport,
    assignment_from_clusters,
    cluster_losses,
    loss_report,
    reassign,
)
from .errors import (
    CatalogError,
    DuplicateItemIdError,
    DuplicateUserIdError,
    EmptyCategoryError,
    EmptyMatrixError,
    MalformedRowError,
    NonBinaryEntryError,
    PreferenceFormatError,
    PrefkitError,
    RankOutOfRangeError,
    TextFormatError,
    UnknownCategoryError,
    WidthMismatchError,
)
from .io import (
    load_catalog,
    load_preferences,
    write_preferences,
)
from .kits import (
    Kit,
    design_all,
    top_items,
    validate_kit,
)
from .kmeans import (
    KMeansConfig,
    KMeansRun,
    SilhouetteReport,
    SweepTable,
    init_centroids,
    run_kmeans,
    silhouette,
    silhouette_from_labels,
    sweep,
)
from .model import (
    Category,
    Item,
    ItemCatalog,
    PreferenceMatrix,
    RowViolation,
    SelectionConstraint,
    validate_constraint,
)
from .seeding import derive_seed, generator
from .signs import (
    SignClustering,
    cluster_count_table,
    item_sign_clusters,
    user_sign_clusters,
)
from .svd import SvdFactors, svd, truncate
from .synthetic import SyntheticSpec, generate_synthetic, kit_count, random_kits

__version__ = "0.1.0"

# The public names are the ones imported above (the submodules are not).
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
