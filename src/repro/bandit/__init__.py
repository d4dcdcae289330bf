"""From-scratch contextual bandit: hashed linear model + off-policy learning."""

from repro.bandit.features import ActionFeatures, ContextFeatures, FeatureVector, joint_features
from repro.bandit.learner import CBLearner, WeightSnapshot
from repro.bandit.offpolicy import dr_estimate, ips_estimate, snips_estimate
from repro.bandit.policy import EpsilonGreedyPolicy, UniformPolicy

__all__ = [
    "ActionFeatures",
    "ContextFeatures",
    "FeatureVector",
    "joint_features",
    "CBLearner",
    "WeightSnapshot",
    "EpsilonGreedyPolicy",
    "UniformPolicy",
    "ips_estimate",
    "snips_estimate",
    "dr_estimate",
]
