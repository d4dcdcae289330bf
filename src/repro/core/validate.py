"""Validation: the regression guard (paper §4.3, §5.3).

A linear regression predicts the PNhours delta of a flip from the DataRead
and DataWritten deltas observed in a single flighting run.  Only flips
whose *predicted* delta clears the safety threshold (−0.1 in production:
at least a 10 % predicted PNhours reduction) are allowed into hints.  The
model is the primary test (one flight is noisy), but the flight can veto:
a flip that measured a PNhours regression is not accepted.  Latency has
no veto (a flight's latency delta often does not survive deployment).

The model is trained on a corpus of flight results gathered over ~14 days
with random flips, split by date into train/test weeks (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.flighting.results import FlightResult, FlightStatus
from repro.ml.linreg import LinearRegression
from repro.scope.optimizer.rules.base import RuleFlip

__all__ = [
    "ValidationModel",
    "ValidationTask",
    "ValidatedFlip",
    "VALIDATION_TRAINING_DAYS",
]

#: validation safety threshold on the predicted PNhours delta (paper: −0.1)
_VALIDATION_THRESHOLD = -0.1
#: days of random-flip flights gathered to train the validation model
VALIDATION_TRAINING_DAYS = 14


@dataclass(frozen=True)
class ValidatedFlip:
    """A flip that passed validation, ready for hint generation."""

    template_id: str
    flip: RuleFlip
    predicted_pnhours_delta: float
    flight: FlightResult


class ValidationModel:
    """PNhours-delta ~ DataRead-delta + DataWritten-delta (OLS)."""

    def __init__(self) -> None:
        self.model = LinearRegression()
        self.training_samples = 0

    @property
    def is_fitted(self) -> bool:
        return self.model.is_fitted

    #: feature clipping bounds: a 20× data-read blowup carries no more
    #: signal than a 2× one, but would dominate the least-squares fit
    _CLIP_LOW = -1.0
    _CLIP_HIGH = 2.0

    @classmethod
    def _features(cls, results: list[FlightResult]) -> np.ndarray:
        raw = np.array(
            [[r.data_read_delta, r.data_written_delta] for r in results], dtype=float
        )
        return np.clip(raw, cls._CLIP_LOW, cls._CLIP_HIGH)

    @staticmethod
    def usable(results: list[FlightResult]) -> list[FlightResult]:
        return [r for r in results if r.status is FlightStatus.SUCCESS]

    def fit(self, results: list[FlightResult]) -> "ValidationModel":
        usable = self.usable(results)
        if len(usable) < 4:
            raise ValidationError(
                f"need at least 4 successful flights to fit, got {len(usable)}"
            )
        targets = np.array([r.pnhours_delta for r in usable], dtype=float)
        self.model.fit(self._features(usable), targets)
        self.training_samples = len(usable)
        return self

    def predict(self, result: FlightResult) -> float:
        """Predicted future PNhours delta of one successful flight."""
        if not self.model.is_fitted:
            raise ValidationError("validation model is not trained")
        features = self._features([result])
        return float(self.model.predict(features)[0])

    def evaluate(self, results: list[FlightResult]) -> dict[str, float]:
        """Accuracy on held-out flights (the paper's Fig. 9 statistics)."""
        usable = self.usable(results)
        if not usable:
            return {"samples": 0.0}
        predictions = np.array([self.predict(r) for r in usable])
        actuals = np.array([r.pnhours_delta for r in usable])
        selected = predictions < -0.1
        stats: dict[str, float] = {
            "samples": float(len(usable)),
            "r2": self.model.r2_score(self._features(usable), actuals),
            "selected": float(selected.sum()),
        }
        if selected.any():
            stats["hit_rate_minus_0_1"] = float(
                (actuals[selected] < -0.1).mean()
            )
            stats["hit_rate_zero"] = float((actuals[selected] < 0.0).mean())
        return stats


class ValidationTask:
    """Applies the model + threshold to a day's flight results."""

    def __init__(self, model: ValidationModel) -> None:
        self.model = model

    def run(self, results: list[FlightResult]) -> list[ValidatedFlip]:
        accepted: list[ValidatedFlip] = []
        for result in results:
            if result.status is not FlightStatus.SUCCESS:
                continue
            predicted = self.model.predict(result)
            if predicted < _VALIDATION_THRESHOLD and result.pnhours_delta <= 0:
                accepted.append(
                    ValidatedFlip(
                        template_id=result.job.template_id,
                        flip=result.flip,
                        predicted_pnhours_delta=predicted,
                        flight=result,
                    )
                )
        return accepted
