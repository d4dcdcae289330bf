"""Bao-style steering: a learned value model per hint-set (action).

Bao (Marcus et al., 2020) steers a query optimizer by predicting, per
hint-set, the performance of the plan that hint-set would produce, then
choosing the best prediction with some exploration.  This policy is the
tabular-action analogue over the QO-Advisor action space (keep the default
plan, or flip exactly one span rule): one
:class:`~repro.ml.linreg.LinearRegression` regressor **per action**,
trained on the job's Table-1 numerics to predict the advantage over the
no-op (the clipped cost ratio the recompile stage reports, minus the
no-op's 1.0 — see :mod:`repro.policies.base`), refit at every
``publish_version()`` from the samples observed since deployment.

Selection is epsilon-greedy over the per-action predictions, with the
usual two-phase rollout: uniform logging during warm-up (the informative
exploration corpus), learned mode afterwards.  Actions whose regressor is
not yet fit fall back to their observed mean advantage (prior 0.0 — the
no-op's own — before any observation), so early days behave like a
well-calibrated default rather than argmax over garbage.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.errors import ValidationError
from repro.ml.linreg import LinearRegression
from repro.policies.base import LearnedSteeringPolicy

if TYPE_CHECKING:
    from repro.scope.jobs import JobInstance

__all__ = ["ValueModelPolicy"]

#: advantage prior for actions never observed (no better than the no-op)
_PRIOR_ADVANTAGE = 0.0


def _context_vector(context: ContextFeatures) -> np.ndarray:
    """Dense Table-1 numerics, log-compressed (costs span decades)."""
    return np.array(
        [
            np.log1p(max(context.estimated_cost, 0.0)),
            np.log1p(max(context.estimated_cardinality, 0.0)),
            np.log1p(max(context.row_count, 0.0)),
            np.log1p(max(context.bytes_read, 0.0)),
            np.log1p(max(context.vertices, 0.0)),
            np.log1p(max(context.avg_row_length, 0.0)),
            float(len(context.span)),
        ]
    )


def _action_key(action: ActionFeatures) -> tuple:
    return (action.rule_id, action.turn_on)


class _ActionModel:
    """One hint-set's value model: sample buffer + refittable regressor."""

    def __init__(self, max_samples: int) -> None:
        self.samples: deque[tuple[np.ndarray, float]] = deque(maxlen=max_samples)
        self.model = LinearRegression()
        self.advantage_sum = 0.0
        self.observations = 0

    def predict(self, features: np.ndarray) -> float:
        if self.model.is_fitted:
            return float(self.model.predict(features[None, :])[0])
        if self.observations:
            return self.advantage_sum / self.observations
        return _PRIOR_ADVANTAGE

    def refit(self) -> None:
        if len(self.samples) < len(_context_vector(ContextFeatures(span=()))) + 2:
            return
        xs = np.stack([x for x, _ in self.samples])
        ys = np.array([y for _, y in self.samples])
        try:
            self.model.fit(xs, ys)
        except ValidationError:
            pass  # degenerate sample set; keep the previous fit (or the mean)


class ValueModelPolicy(LearnedSteeringPolicy):
    """Per-action advantage regressors, epsilon-explored (Bao-style)."""

    name = "value_model"

    def __init__(
        self,
        epsilon: float = 0.1,
        seed: int = 0,
        max_samples_per_action: int = 4096,
        mode: str = "uniform_logging",
    ) -> None:
        super().__init__(epsilon, seed, mode)
        self.max_samples_per_action = max_samples_per_action
        self._models: dict[tuple, _ActionModel] = {}

    def _model_for(self, action: ActionFeatures) -> _ActionModel:
        key = _action_key(action)
        model = self._models.get(key)
        if model is None:
            model = self._models[key] = _ActionModel(self.max_samples_per_action)
        return model

    # -- LearnedSteeringPolicy hooks ----------------------------------------------

    def _scores(
        self,
        context: ContextFeatures,
        actions: list[ActionFeatures],
        job: "JobInstance | None",
    ) -> np.ndarray:
        features = _context_vector(context)
        return np.array([self._model_for(action).predict(features) for action in actions])

    def _learn(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        advantage: float,
        probability: float,
    ) -> None:
        model = self._model_for(action)
        model.samples.append((_context_vector(context), advantage))
        model.advantage_sum += advantage
        model.observations += 1

    def publish_version(self) -> int:
        """Refit every action's regressor on its buffer, then snapshot.

        The refit is the Bao retrain cadence: the daily pipeline calls
        ``publish_version`` once per day, so models track the newest
        ``max_samples_per_action`` observations per hint-set.
        """
        for key in sorted(self._models, key=repr):
            self._models[key].refit()
        return super().publish_version()

    def _snapshot(self) -> object:
        return {
            key: (
                None
                if not model.model.is_fitted
                else (model.model.coef_.copy(), model.model.intercept_),
                model.advantage_sum,
                model.observations,
            )
            for key, model in self._models.items()
        }

    def _restore(self, state: object) -> None:
        # a hint-set first seen after the snapshot goes back to the prior
        self._models = {key: model for key, model in self._models.items() if key in state}
        for key, (fit, advantage_sum, observations) in state.items():
            model = self._models.get(key)
            if model is None:
                model = self._models[key] = _ActionModel(self.max_samples_per_action)
            if fit is not None:
                model.model.coef_ = fit[0].copy()
                model.model.intercept_ = fit[1]
            else:
                model.model = LinearRegression()
            model.advantage_sum = advantage_sum
            model.observations = observations
