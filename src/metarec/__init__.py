"""Meta-learning laboratory for cold-start recommendation.

The package trains personalized-learning-rate meta-learners (and fixed-rate
baselines) on user-level rating tasks, verifies the closed-form two-group
lemmas against numeric oracles, and evaluates models with ranking and error
metrics under seeded, reproducible experiment runs.
"""

from .errors import ConfigError, DataError, MetarecError, NumericError
from .evaluation import (
    MetricsReport,
    auc,
    build_report,
    mse,
    ndcg_at_k,
    t_test_two_sample,
    weighted_nel,
)
from .lemma_oracle import (
    BoundReport,
    LemmaReport,
    TwoGroupSpec,
    alpha2_equalizing,
    bound_check,
    minimize_adapted_loss,
    theta_star_adaptive,
    theta_star_fixed,
    verify_lemmas,
)
from .memory_tree import Neighbors, TreeMemory, blend_gradients
from .meta_learners import (
    ALGORITHMS,
    LrHead,
    MetaTrainer,
    TrainedModel,
    TrainerConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .config import (
    ExperimentConfig,
    MovielensConfig,
    SyntheticConfig,
    build_experiment_config,
    experiment_digest,
    flatten_config,
    load_experiment_config,
)
from .model import ModelSpec, forward, grad, hvp, init_params, loss, user_embedding
from .params import Gradient, ParamSet, axpy_update
from .tasks import (
    DatasetSplits,
    InteractionColumns,
    PreprocessConfig,
    RatingColumns,
    RawDataset,
    TaskEpisode,
    UserProfile,
    classify_major_minor,
    load_movielens,
    preprocess,
    synthetic_splits,
)

__all__ = [
    "ALGORITHMS",
    "BoundReport",
    "ConfigError",
    "DataError",
    "DatasetSplits",
    "ExperimentConfig",
    "Gradient",
    "InteractionColumns",
    "LemmaReport",
    "LrHead",
    "MetaTrainer",
    "MetarecError",
    "MetricsReport",
    "ModelSpec",
    "MovielensConfig",
    "Neighbors",
    "NumericError",
    "ParamSet",
    "PreprocessConfig",
    "RatingColumns",
    "RawDataset",
    "SyntheticConfig",
    "TaskEpisode",
    "TrainedModel",
    "TrainerConfig",
    "TreeMemory",
    "TwoGroupSpec",
    "UserProfile",
    "alpha2_equalizing",
    "auc",
    "axpy_update",
    "blend_gradients",
    "bound_check",
    "build_experiment_config",
    "build_report",
    "classify_major_minor",
    "evaluate",
    "experiment_digest",
    "flatten_config",
    "forward",
    "grad",
    "hvp",
    "init_params",
    "load_checkpoint",
    "load_experiment_config",
    "load_movielens",
    "loss",
    "minimize_adapted_loss",
    "mse",
    "ndcg_at_k",
    "preprocess",
    "save_checkpoint",
    "synthetic_splits",
    "t_test_two_sample",
    "theta_star_adaptive",
    "theta_star_fixed",
    "train",
    "user_embedding",
    "verify_lemmas",
    "weighted_nel",
]
