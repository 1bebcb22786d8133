"""Link-prediction toolkit built on high-order common-neighbor counts.

Per-order pair features come from sparse walk counts; a streaming
Gram-Schmidt pass removes cross-order redundancy, a walk-participation
normalizer removes hub bias, and a small logistic head combines the result
with propagated node features. A theory module provides random-graph
generators and closed-form latent-distance bounds with Monte-Carlo
validation.
"""

__version__ = "0.1.0"

from .diagnostics import (coefficient_of_variation, edge_jsd,
                          order_correlation, variation_ratio)
from .errors import (BoundDomainError, ConfigError, EdgeListParseError,
                     EvaluationError, HocnError, InputError, MetricError,
                     SamplingError, ScaleError, SplitError, TrainingError)
from .features import (OrderFeatures, adj_power_row, cn_order_features,
                       cn_order_features_all, cn_set)
from .graph import (Graph, LoadReport, PairBatch, SplitResult, load_edge_list,
                    merged_graph, sample_negatives, split_edges)
from .metrics import EvalReport, evaluate, hits_at_k, mrr
from .normalize import (ParticipationCounts, apply_normalization,
                        exact_walk_participation, normalized_cn_score,
                        normalized_cn_scores, running_counts, update_running_participation)
from .ortho import (ExactOrthoBasis, OrthoBasis, RunningState,
                    apply_polynomial_filter, degree_filter_argument,
                    frobenius_inner, frobenius_norm,
                    full_graph_orthogonalize, gram_schmidt_batch,
                    polynomial_weights)
from .scoring import (FeatureConfig, ScoreModel, TrainConfig, TrainResult,
                      default_node_features, heuristic_score,
                      heuristic_scores, model_scores, pair_features,
                      propagate_features, train_model)
from .theory import (BoundInputs, BoundResult, LatentModelParams,
                     LatentSample, ViolationReport, ba_bound_normalized,
                     ba_bound_unnormalized, bound_normalized,
                     bound_unnormalized, lambert_w,
                     log_double_factorial_ratio, sample_ba_graph,
                     sample_latent_model, torus_distances, unit_ball_volume,
                     validate_bound)
