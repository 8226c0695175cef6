"""Fair tabular representations: mixed-space encoding, closed-form
sensitive-attribute removal, and group-fairness evaluation.

Importing the package pins BLAS to one thread per process, unless the
caller set a thread variable. The pin must come before numpy's first
import, which starts the BLAS thread pool. BLAS_PINNED records whether
it took effect: only then do the two networks' training and the two
halves of a text matrix export each run in their own process (see
linalg.run_both).
"""

import os as _os
import sys as _sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_numpy_first = "numpy" in _sys.modules
for _var in BLAS_THREAD_VARS:
    _os.environ.setdefault(_var, "1")
BLAS_PINNED = not _numpy_first and all(_os.environ[v] == "1" for v in BLAS_THREAD_VARS)

from .dataset import (
    ColumnSchema,
    EncodedDataset,
    LevelMap,
    RawTable,
    SplitIndices,
    discretize_german_age,
    encode,
    load_csv,
    load_schema,
    load_split,
    save_split,
    stratified_split,
)
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    TabfairError,
    UndefinedMetricError,
)
from .evaluation import (
    FairnessReport,
    accuracy,
    disparate_impact,
    eighty_percent_rule,
    evaluate_representation,
    predict_proba,
    roc_auc,
    statistical_parity_difference,
    train_probe,
)
from .fair_projection import (
    DebiasedRepresentation,
    FairProjectionConfig,
    debias,
    select_k,
)
from .linalg import (
    SvdResult,
    explained_variance,
    load_matrix,
    projector,
    rank_k_svd,
    residualize,
    save_matrix,
)
from .mixed_encoder import (
    MixedEncoderConfig,
    encode_dataset,
    train_mixed,
)
from .neuralnet import (
    AdamState,
    MlpConfig,
    MlpParams,
    TrainHistory,
    adam_step,
    backward,
    bce_loss,
    extract_latent,
    forward,
    init_params,
    load_mlp,
    mse_loss,
    save_mlp,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ColumnSchema",
    "ConfigError",
    "DataError",
    "DebiasedRepresentation",
    "EncodedDataset",
    "FairProjectionConfig",
    "FairnessReport",
    "LevelMap",
    "MixedEncoderConfig",
    "MlpConfig",
    "MlpParams",
    "NumericalError",
    "RawTable",
    "SplitIndices",
    "SvdResult",
    "TabfairError",
    "TrainHistory",
    "UndefinedMetricError",
    "accuracy",
    "adam_step",
    "backward",
    "bce_loss",
    "debias",
    "discretize_german_age",
    "disparate_impact",
    "eighty_percent_rule",
    "encode",
    "encode_dataset",
    "evaluate_representation",
    "explained_variance",
    "extract_latent",
    "forward",
    "init_params",
    "load_csv",
    "load_matrix",
    "load_mlp",
    "load_schema",
    "load_split",
    "mse_loss",
    "predict_proba",
    "projector",
    "rank_k_svd",
    "residualize",
    "roc_auc",
    "save_matrix",
    "save_mlp",
    "save_split",
    "select_k",
    "statistical_parity_difference",
    "stratified_split",
    "train",
    "train_mixed",
    "train_probe",
]
