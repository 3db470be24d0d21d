"""Beta reputation system.

Trust in the agora is earned: each settled contract produces a compliance
signal in [0, 1] that updates the provider's Beta-distributed reputation.
The classic beta reputation model (Jøsang & Ismail) with exponential
forgetting: old evidence decays so that a reformed (or degraded) provider's
score tracks its recent behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class BetaReputation:
    """Reputation of one subject as Beta(alpha, beta) pseudo-counts.

    ``alpha`` accumulates positive evidence, ``beta`` negative evidence.
    The neutral prior Beta(1, 1) gives an uninformed score of 0.5.
    """

    alpha: float = 1.0
    beta: float = 1.0
    decay: float = 0.98

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")

    def observe(self, outcome: float) -> None:
        """Update with an outcome in [0, 1] (1 = fully compliant)."""
        if not 0.0 <= outcome <= 1.0:
            raise ValueError("outcome must be in [0, 1]")
        self.alpha = self.alpha * self.decay + outcome
        self.beta = self.beta * self.decay + (1.0 - outcome)

    @property
    def score(self) -> float:
        """Expected compliance probability."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def evidence(self) -> float:
        """Effective number of observations behind the score."""
        return self.alpha + self.beta - 2.0


class ReputationSystem:
    """Reputation scores for all providers in an agora."""

    def __init__(self, decay: float = 0.98, prior: Tuple[float, float] = (1.0, 1.0)):
        self._decay = decay
        self._prior = prior
        self._subjects: Dict[str, BetaReputation] = {}

    def _get(self, subject_id: str) -> BetaReputation:
        if subject_id not in self._subjects:
            alpha, beta = self._prior
            self._subjects[subject_id] = BetaReputation(alpha, beta, self._decay)
        return self._subjects[subject_id]

    def observe(self, subject_id: str, outcome: float) -> None:
        """Record a compliance outcome for ``subject_id``."""
        self._get(subject_id).observe(outcome)

    def score(self, subject_id: str) -> float:
        """Current trust score; unknown subjects get the neutral prior."""
        return self._get(subject_id).score

    def evidence(self, subject_id: str) -> float:
        """Effective number of observations behind the score."""
        return self._get(subject_id).evidence

    def ranked(self, subject_ids: Optional[Iterable[str]] = None) -> List[Tuple[str, float]]:
        """Subjects sorted by descending score."""
        ids = list(subject_ids) if subject_ids is not None else sorted(self._subjects)
        pairs = [(subject_id, self.score(subject_id)) for subject_id in ids]
        return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
