"""Context inference from observed activity.

"Context identification will also be needed at run time so that the
appropriate parts of the user's profile become activated" (§8).  The
inferencer is a small naive-Bayes-style frequency model: it observes
(evidence, true context) pairs during a calibration phase and then
predicts the most likely value per context dimension from run-time
evidence (interaction mode, dominant item domain, companion count).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.context.model import Context

Evidence = Tuple[str, str]  # (interaction mode, dominant item domain)


@dataclass(frozen=True)
class ActivityObservation:
    """One run-time evidence sample."""

    mode: str
    dominant_domain: str

    @property
    def key(self) -> Evidence:
        """Hashable evidence key."""
        return (self.mode, self.dominant_domain)


class ContextInferencer:
    """Frequency-based context predictor.

    Laplace-smoothed per-dimension value counts conditioned on evidence.
    Unseen evidence falls back to the marginal distribution; a completely
    untrained model predicts the default context.
    """

    INFERRED_DIMENSIONS = ("time_of_day", "task", "previous_activity")

    def __init__(self, smoothing: float = 1.0):
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.smoothing = smoothing
        # dimension -> evidence -> value -> count
        self._counts: Dict[str, Dict[Evidence, Dict[str, float]]] = {
            dim: defaultdict(lambda: defaultdict(float))
            for dim in self.INFERRED_DIMENSIONS
        }
        self._marginals: Dict[str, Dict[str, float]] = {
            dim: defaultdict(float) for dim in self.INFERRED_DIMENSIONS
        }

    # ------------------------------------------------------------------
    def observe(self, evidence: ActivityObservation, true_context: Context) -> None:
        """Record one labelled calibration sample."""
        for dimension in self.INFERRED_DIMENSIONS:
            value = str(true_context.value(dimension))
            self._counts[dimension][evidence.key][value] += 1.0
            self._marginals[dimension][value] += 1.0

    # ------------------------------------------------------------------
    def _predict_dimension(self, dimension: str, evidence: ActivityObservation) -> Optional[str]:
        conditioned = self._counts[dimension].get(evidence.key)
        table = conditioned if conditioned else self._marginals[dimension]
        if not table:
            return None
        # Laplace smoothing over observed values; deterministic tie-break.
        scored = sorted(
            table.items(), key=lambda pair: (-(pair[1] + self.smoothing), pair[0])
        )
        return scored[0][0]

    def infer(
        self,
        evidence: ActivityObservation,
        default: Optional[Context] = None,
    ) -> Context:
        """Predict the current context from run-time evidence."""
        base = default if default is not None else Context()
        changes: Dict[str, str] = {}
        for dimension in self.INFERRED_DIMENSIONS:
            predicted = self._predict_dimension(dimension, evidence)
            if predicted is not None:
                changes[dimension] = predicted
        return base.with_(**changes)
