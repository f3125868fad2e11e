"""Pose-invariant identity recognition by fusing part-level classifiers.

The package trains one linear classifier per body part on whatever subset of
instances that part fires on, lifts every sparse posterior onto the full
identity set by blending with a dense global posterior, and combines the
lifted posteriors with learned per-part weights. Detection-to-instance
matching, evaluation protocols, and a synthetic benchmark round it out.
"""

from __future__ import annotations

import os

# OpenBLAS reads this once, when numpy first loads it, so it is set before the
# imports below. One BLAS thread per process: the products here are small, a
# second thread spins idle after each threaded product and after each fork,
# and `workers._forked_map` supplies the parallelism. A value the caller set
# is kept, and numpy imported before this package keeps its own threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .data import (
    Dataset,
    FeatureMatrix,
    Instance,
    PartInfo,
    PartRegistry,
    l2_normalize_rows,
    load_index,
    make_registry,
    read_features,
    write_features,
    write_index,
)
from .fusion import (
    FusionWeights,
    ProbabilityTable,
    WeightLearningInfo,
    fill_sparsity,
    fill_sparsity_rows,
    fuse_matrix,
    learn_weights,
    read_prob_table,
    read_weights,
    write_prob_table,
    write_weights,
)
from .geometry import (
    BBox,
    GeometryError,
    body_from_head,
    iou,
)
from .matching import (
    Assignment,
    Detection,
    activations_per_instance,
    load_detections,
    match_bruteforce,
    match_detections,
    normalize_scores,
    write_detections,
)
from .protocols import (
    EvalReport,
    ReferenceModels,
    build_identity_embeddings,
    eval_ablation,
    eval_faces_split,
    eval_oneshot,
    eval_recognition,
    eval_retrieval,
    learn_fusion_weights,
    run_retrieval_protocol,
    stratified_half_split,
    train_reference_models,
    write_report,
)
from .svm import (
    LinearModel,
    ModelGrid,
    TrainConfig,
    hinge_objective,
    hinge_subgradient,
    softmax,
    train_binary,
    train_multiclass,
)
from .synth import SynthConfig, SynthData, generate, planted_config, write_synth

__all__ = [
    "__version__",
    "Assignment",
    "BBox",
    "Dataset",
    "Detection",
    "EvalReport",
    "FeatureMatrix",
    "FusionWeights",
    "GeometryError",
    "Instance",
    "LinearModel",
    "ModelGrid",
    "PartInfo",
    "PartRegistry",
    "ProbabilityTable",
    "ReferenceModels",
    "SynthConfig",
    "SynthData",
    "TrainConfig",
    "WeightLearningInfo",
    "activations_per_instance",
    "body_from_head",
    "build_identity_embeddings",
    "eval_ablation",
    "eval_faces_split",
    "eval_oneshot",
    "eval_recognition",
    "eval_retrieval",
    "fill_sparsity",
    "fill_sparsity_rows",
    "fuse_matrix",
    "generate",
    "hinge_objective",
    "hinge_subgradient",
    "iou",
    "l2_normalize_rows",
    "learn_fusion_weights",
    "learn_weights",
    "load_detections",
    "load_index",
    "make_registry",
    "match_bruteforce",
    "match_detections",
    "normalize_scores",
    "planted_config",
    "read_features",
    "read_prob_table",
    "read_weights",
    "run_retrieval_protocol",
    "softmax",
    "stratified_half_split",
    "train_binary",
    "train_multiclass",
    "train_reference_models",
    "write_detections",
    "write_features",
    "write_index",
    "write_prob_table",
    "write_report",
    "write_weights",
]
