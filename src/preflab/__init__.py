"""Desk-scale preference-optimization laboratory.

Pairwise preference losses (response-level, segment-level, and
token-weighted) over tiny autoregressive policies, built on a from-scratch
reverse-mode autodiff core, with brute-force oracles that certify the
underlying theory on enumerable token spaces.
"""

import os

# one BLAS thread, assigned over any inherited value before a submodule imports
# numpy: threaded BLAS sums in an order that depends on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .data import BigramMatchTask, PreferencePair, generate_dataset, load_jsonl, save_jsonl
from .lm import (
    NeuralPolicy,
    NGramPolicy,
    Vocab,
    load_checkpoint,
    save_checkpoint,
    token_logprobs,
)
from .losses import (
    LogRatioBatch,
    LossConfig,
    PairLogRatios,
    adpo_loss,
    cadpo_loss,
    dpo_loss,
    segment_pair,
)
from .oracle import (
    EnumSpace,
    additive_decompose,
    boltzmann_distribution,
    reparameterize,
)
from .trainer import TrainConfig, eval_pairs, prefix_reward_profile, train

__version__ = "0.1.0"

__all__ = [
    "BigramMatchTask",
    "EnumSpace",
    "LogRatioBatch",
    "LossConfig",
    "NGramPolicy",
    "NeuralPolicy",
    "PairLogRatios",
    "PreferencePair",
    "TrainConfig",
    "Vocab",
    "additive_decompose",
    "adpo_loss",
    "boltzmann_distribution",
    "cadpo_loss",
    "dpo_loss",
    "eval_pairs",
    "generate_dataset",
    "load_checkpoint",
    "load_jsonl",
    "prefix_reward_profile",
    "reparameterize",
    "save_checkpoint",
    "save_jsonl",
    "segment_pair",
    "token_logprobs",
    "train",
]
