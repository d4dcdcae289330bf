"""Featurization for the rule-recommendation bandit.

Follows the paper's findings (§3.2, §6):

* the **context** is dominated by the *job span itself* — indicator
  features for every span bit plus **second and third order co-occurrence
  indicators** over span bits ("the surprising effectiveness of span
  features");
* numeric job features (Table 1) add marginal value and enter as
  log-bucketized indicators;
* **actions** are featurized by rule id and rule category;
* context × action interactions cross the span bits with the acted-on rule
  so the model can learn "flip r helps when s is in the span".

**Ordering invariant.**  A joint vector is the context features followed by
the action's own and ``cross`` features, each slot at the position of its
first ``add``, values accumulated in ``add`` order; the scorer sums it in
that order.  The context part is the same for every action of a job, so it
is built once (:func:`context_features`) and shared — and the result must
stay *bit*-identical to building every vector from scratch: same ``(index,
value)`` items in the same order, hence the same float sums, argmax, RNG
draws and day fingerprints.  Only an action whose slots
(:func:`action_features`) are disjoint from the context's may be scored as
"context prefix, then action suffix"; a colliding action changes a context
slot in place and takes the full sequential sum (:func:`joint_features`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from repro.bandit.hashing import feature_index

__all__ = [
    "FeatureVector", "ContextFeatures", "ActionFeatures",
    "context_features", "action_features", "joint_features",
]


@dataclass
class FeatureVector:
    """Sparse feature vector: hashed index → value (values accumulate)."""

    bits: int
    values: dict[int, float] = field(default_factory=dict)

    def add(self, namespace: str, name: str, value: float = 1.0) -> None:
        index = feature_index(namespace, name, self.bits)
        self.values[index] = self.values.get(index, 0.0) + value

    def items(self):
        return self.values.items()

    def __len__(self) -> int:
        return len(self.values)


def _log_bucket(value: float) -> str:
    if value <= 0:
        return "neg"
    return str(int(math.log10(value + 1.0)))


@dataclass(frozen=True)
class ContextFeatures:
    """Per-job context: span plus Table 1 numerics."""

    span: tuple[int, ...]
    estimated_cost: float = 0.0
    estimated_cardinality: float = 0.0
    row_count: float = 0.0
    bytes_read: float = 0.0
    vertices: float = 0.0
    avg_row_length: float = 0.0
    job_name: str = ""

    def write_into(self, vector: FeatureVector, interaction_order: int = 3) -> None:
        span = tuple(sorted(self.span))
        for rule_id in span:
            vector.add("span", f"s{rule_id}")
        if interaction_order >= 2:
            for a, b in combinations(span, 2):
                vector.add("span2", f"s{a}&s{b}")
        if interaction_order >= 3:
            for a, b, c in combinations(span, 3):
                vector.add("span3", f"s{a}&s{b}&s{c}")
        vector.add("job", f"cost_{_log_bucket(self.estimated_cost)}")
        vector.add("job", f"card_{_log_bucket(self.estimated_cardinality)}")
        vector.add("job", f"rows_{_log_bucket(self.row_count)}")
        vector.add("job", f"read_{_log_bucket(self.bytes_read)}")
        vector.add("job", f"verts_{_log_bucket(self.vertices)}")
        vector.add("job", f"width_{_log_bucket(self.avg_row_length)}")
        if self.job_name:
            vector.add("job", f"name_{self.job_name.split('_')[0]}")


@dataclass(frozen=True)
class ActionFeatures:
    """One action: keep the default plan, or flip a single rule."""

    rule_id: int | None  # None = the no-op action
    turn_on: bool = False
    category: str = ""

    @property
    def is_noop(self) -> bool:
        return self.rule_id is None

    def write_into(self, vector: FeatureVector) -> None:
        if self.rule_id is None:
            vector.add("action", "noop")
            return
        vector.add("action", f"rule_{self.rule_id}")
        vector.add("action", f"dir_{'on' if self.turn_on else 'off'}")
        if self.category:
            vector.add("action", f"cat_{self.category}")


def context_features(
    context: ContextFeatures, bits: int, interaction_order: int = 3
) -> FeatureVector:
    """The action-independent part of a job's joint vectors."""
    vector = FeatureVector(bits)
    context.write_into(vector, interaction_order)
    return vector


def _write_action(vector: FeatureVector, context: ContextFeatures, action: ActionFeatures) -> None:
    action.write_into(vector)
    if action.rule_id is not None:
        for span_rule in context.span:
            vector.add("cross", f"s{span_rule}|a{action.rule_id}")
        vector.add("cross", f"self|{'in' if action.rule_id in context.span else 'out'}")


def action_features(context: ContextFeatures, action: ActionFeatures, bits: int) -> FeatureVector:
    """The per-action part alone: action ⊕ (span × action) crossed features."""
    vector = FeatureVector(bits)
    _write_action(vector, context, action)
    return vector


def joint_features(
    context: ContextFeatures,
    action: ActionFeatures,
    bits: int,
    interaction_order: int = 3,
    shared: FeatureVector | None = None,
) -> FeatureVector:
    """Context ⊕ action ⊕ (span × action) crossed features.

    ``shared`` is ``context_features(context, bits, interaction_order)``
    when the caller already has it; it is copied, never written.
    """
    if shared is None:
        shared = context_features(context, bits, interaction_order)
    vector = FeatureVector(bits, dict(shared.values))
    _write_action(vector, context, action)
    return vector
