"""Quasi-cyclic Tanner graphs, trapping-set invariants, Bethe-Hessian
spectral estimation, zeta-function diagnostics, and spectral-embedding
classifier ensembles.
"""

from .sparse import (SparseSym, eig_dense, lambda_min, rank_and_kernel,
                     read_matrix_market, write_matrix_market)
from .qc import (Cycle, LiftSearchResult, METProtograph, TannerGraph, ace,
                 bipartite_adjacency, enumerate_cycles, girth, lift,
                 optimize_lift, parse_exponent_text, read_exponent_file)
from .permanent import bethe_permanent, dmin_upper_bound, permanent
from .trapping import (InvariantReport, TrappingSet, betti, continuous_genus,
                       kasparov_k, negative_modes, spanning_forest_incidence,
                       spectral_radius, invariant_panel)
from .zeta import (SimpleGraph, bass_identity_residual,
                   bass_loose_form_residual, det_crossing_check, poles,
                   zeta_reciprocal)
from .rbim import CouplingGraph, sample_nishimori_pm
from .estimator import (EstimatorConfig, EstimatorTrace, UnweightedSystem,
                        WeightedSystem, bethe_hessian_weighted,
                        bisection_baseline, estimate_beta_N)
from .embed import (Embedding, FeatureTable, select_indices, similarity_graph,
                    spectral_embed, synthetic_features)
from .classify import (EnsembleConfig, LinearModel, accuracy,
                       confusion_matrix, ensemble_decide, per_class_metrics,
                       predict, predict_labels, train_linear)
from .pipeline import run_pipeline, stratified_split

__version__ = "0.1.0"

__all__ = [
    "SparseSym", "eig_dense", "lambda_min", "rank_and_kernel",
    "read_matrix_market", "write_matrix_market",
    "Cycle", "LiftSearchResult", "METProtograph", "TannerGraph", "ace",
    "bipartite_adjacency", "enumerate_cycles", "girth", "lift",
    "optimize_lift", "parse_exponent_text", "read_exponent_file",
    "bethe_permanent", "dmin_upper_bound", "permanent",
    "InvariantReport", "TrappingSet", "betti", "continuous_genus",
    "kasparov_k", "negative_modes", "spanning_forest_incidence",
    "spectral_radius", "invariant_panel",
    "SimpleGraph", "bass_identity_residual", "bass_loose_form_residual",
    "det_crossing_check", "poles", "zeta_reciprocal",
    "CouplingGraph", "sample_nishimori_pm",
    "EstimatorConfig", "EstimatorTrace", "UnweightedSystem", "WeightedSystem",
    "bethe_hessian_weighted", "bisection_baseline", "estimate_beta_N",
    "Embedding", "FeatureTable", "select_indices", "similarity_graph",
    "spectral_embed", "synthetic_features",
    "EnsembleConfig", "LinearModel", "accuracy", "confusion_matrix",
    "ensemble_decide", "per_class_metrics", "predict", "predict_labels",
    "train_linear",
    "run_pipeline", "stratified_split",
    "__version__",
]
