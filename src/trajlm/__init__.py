"""Trajectory anomaly detection with an autoregressive token model.

Trajectories (grid cells, staypoints, dwell-time buckets, activities) are
tokenized and modeled with a causal-attention network; anomalies are flagged
by perplexity against mean+std thresholds, localized by per-token surprisal,
and scored online through key/value-cached incremental sessions.
"""

from .errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointVersionError,
    CheckpointVocabError,
    ConfigError,
    DataError,
    DomainError,
    SessionFullError,
    TrajLMError,
    VocabError,
)
from .grid import CellId, GridSpec, shift_cell, to_cell
from .model import Model, ModelConfig, backward, init_model, nll_loss
from .dataio import TOOL_VERSION as __version__
from .checkpoint import load_checkpoint, read_checkpoint, save_checkpoint, write_checkpoint
from .online import Session, open_session, partial_verdict
from .scoring import (
    ScoreReport,
    ThresholdTable,
    classify,
    compute_thresholds,
    score_corpus,
    surprisal,
    token_log_probs,
)
from .synth import (
    AnomalySpec,
    WorldConfig,
    gen_pol_corpus,
    gen_route_corpus,
    inject_detour,
    inject_random_shift,
)
from .training import TrainConfig, train
from .vocab import EncodedTrajectory, Token, Vocab, bucket_duration, build_vocab, encode
from .evaluate import EvalReport, completion_ratio_eval, f1, per_agent_eval, pr_auc
