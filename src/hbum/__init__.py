"""hbum: hierarchical Bayesian unmixing and mapping.

Joint linear spectral unmixing, spatially regularized clustering and
label-noise-robust supervised classification of images, inferred by a single
Gibbs sampler, plus a synthetic-scene generator and evaluation metrics.
"""

__version__ = "0.1.0"

from .errors import (
    DataFormatError,
    GenerationError,
    HbumError,
    InvalidParameterError,
    NumericalDegeneracyError,
    ValidationError,
)
from .lattice import Lattice
from .model import (
    AbundanceMatrix,
    ChainState,
    ClusterParams,
    EndmemberMatrix,
    InteractionMatrix,
    LabelField,
    ModelConfig,
    NoiseModel,
    ObservationMatrix,
    SupervisionData,
)
from .sampler import Trace, run_chain
from .synthgen import (
    SceneSpec,
    TrainingSplit,
    corrupt_labels,
    default_cluster_means,
    generate_potts_field,
    generate_scene,
    make_endmembers,
    split_training,
)
from .metrics import ConfusionMatrix, align_clusters, cohen_kappa, rgmse

__all__ = [
    "__version__",
    "HbumError",
    "ValidationError",
    "InvalidParameterError",
    "GenerationError",
    "NumericalDegeneracyError",
    "DataFormatError",
    "Lattice",
    "ObservationMatrix",
    "EndmemberMatrix",
    "AbundanceMatrix",
    "NoiseModel",
    "ClusterParams",
    "LabelField",
    "InteractionMatrix",
    "SupervisionData",
    "ModelConfig",
    "ChainState",
    "Trace",
    "run_chain",
    "SceneSpec",
    "TrainingSplit",
    "default_cluster_means",
    "make_endmembers",
    "generate_potts_field",
    "generate_scene",
    "split_training",
    "corrupt_labels",
    "ConfusionMatrix",
    "rgmse",
    "cohen_kappa",
    "align_clusters",
]
