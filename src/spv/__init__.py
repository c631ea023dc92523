"""Sparse-representation watch-list screening from a single reference still.

The pipeline pairs a pose-augmented gallery dictionary (original still plus
synthesized views at representative poses) with a pose-blocked variational
dictionary harvested from a generic set, encodes probes jointly over both,
and rejects out-of-watch-list probes by sparsity concentration.
"""

from .benchmark import BenchmarkBundle, BenchmarkSpec, generate_benchmark
from .classifier import (
    ProbeDecision,
    accept,
    class_selector,
    classify,
    esrc_classify,
    nn_template_classify,
    sci,
    spv_classify,
)
from .dictionaries import (
    AugmentedGallery,
    IdentitySynthesizer,
    ImportedSynthesizer,
    ToySynthesizer,
    VariationalDictionary,
    ViewSynthesizer,
    build_augmented_gallery,
    build_variational_dictionary,
)
from .exemplars import (
    AssignmentMatrix,
    DissimilarityMatrix,
    PoseClustering,
    eta_for_cluster_count,
    eta_max,
    extract_clustering,
    pose_dissimilarities,
    select_exemplars,
)
from .experiment import (
    EvalReport,
    ExperimentResult,
    ProbeRecord,
    emit_report,
    load_report,
    pose_robustness_summary,
    rank1_accuracy,
    run_experiment,
)
from .matrixio import (
    DataError,
    ModelConfig,
    SampleMatrix,
    SampleMeta,
    load_matrix,
    load_metadata,
    save_matrix,
    save_metadata,
)
from .metrics import aupr, pauc20, pr_curve, roc_curve
from .solvers import (
    ActiveSet,
    PairedDictionary,
    SparseCode,
    extended_solve,
    lasso_solve,
    paired_solve,
    restricted_least_squares,
    tau_norm,
)

__version__ = "0.1.0"
