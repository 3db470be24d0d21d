"""Concession strategies.

A strategy decides the utility level an agent demands at each moment of
the negotiation.  Classic families (Faratin et al., echoed in the paper's
Rosenschein & Zlotkin reference):

- time-dependent: Boulware (concede late), Conceder (concede early),
  Linear — all special cases of an exponent ``e`` on normalised time;
- behaviour-dependent: Tit-for-Tat mirrors the opponent's concessions;
- Firm: never concedes (take-it-or-leave-it baseline).

Personalization hook: a user's profile carries a *negotiation style* that
maps directly to one of these strategies (§5: "different levels of ability
to negotiate with the merchant").
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import List


class ConcessionStrategy(ABC):
    """Maps negotiation progress to the utility the agent insists on."""

    #: highest utility demanded (at t=0)
    start_utility: float = 0.95

    @staticmethod
    def _check_time(t: float) -> None:
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must be in [0, 1]")


@dataclass
class TimeDependentStrategy(ConcessionStrategy):
    """Faratin-style time-dependent concession.

    target(t) = floor + (start − floor) · (1 − t^(1/e))

    - ``e`` < 1: Boulware — holds firm, concedes only near the deadline.
    - ``e`` = 1: linear concession.
    - ``e`` > 1: Conceder — gives ground early.
    """

    e: float = 1.0
    start_utility: float = 0.95
    name: str = "time-dependent"

    def __post_init__(self) -> None:
        if self.e <= 0:
            raise ValueError("exponent e must be positive")
        if not 0.0 <= self.start_utility <= 1.0:
            raise ValueError("start_utility must be in [0, 1]")

    def target(self, t, own_floor, opponent_utilities) -> float:
        """Demanded own-utility at normalised time ``t``."""
        self._check_time(t)
        span = max(0.0, self.start_utility - own_floor)
        return own_floor + span * (1.0 - t ** (1.0 / self.e))


def boulware(e: float = 0.2, start_utility: float = 0.95) -> TimeDependentStrategy:
    """A tough negotiator (concedes late)."""
    if not 0 < e < 1:
        raise ValueError("boulware needs 0 < e < 1")
    return TimeDependentStrategy(e=e, start_utility=start_utility, name="boulware")


def conceder(e: float = 3.0, start_utility: float = 0.95) -> TimeDependentStrategy:
    """A soft negotiator (concedes early)."""
    if e <= 1:
        raise ValueError("conceder needs e > 1")
    return TimeDependentStrategy(e=e, start_utility=start_utility, name="conceder")


def linear(start_utility: float = 0.95) -> TimeDependentStrategy:
    """A linear-concession negotiator."""
    return TimeDependentStrategy(e=1.0, start_utility=start_utility, name="linear")


@dataclass
class TitForTatStrategy(ConcessionStrategy):
    """Behaviour-dependent: reciprocate the opponent's concessions.

    Our target drops by ``reciprocity`` × the opponent's last concession
    (measured in our utility).  Facing a stubborn opponent we stay firm;
    facing a conceder we meet them part-way.
    """

    reciprocity: float = 1.0
    start_utility: float = 0.95
    name: str = "tit-for-tat"

    def __post_init__(self) -> None:
        if self.reciprocity < 0:
            raise ValueError("reciprocity must be non-negative")

    def target(self, t, own_floor, opponent_utilities) -> float:
        """Demanded own-utility at normalised time ``t``."""
        self._check_time(t)
        target = self.start_utility
        for previous, current in zip(opponent_utilities, opponent_utilities[1:]):
            concession = max(0.0, current - previous)
            target -= self.reciprocity * concession
        return max(own_floor, target)


@dataclass
class FirmStrategy(ConcessionStrategy):
    """Never concede: take it or leave it."""

    start_utility: float = 0.95
    name: str = "firm"

    def target(self, t, own_floor, opponent_utilities) -> float:
        """Demanded own-utility at normalised time ``t``."""
        self._check_time(t)
        return max(own_floor, self.start_utility)


def standard_strategy_suite() -> List[ConcessionStrategy]:
    """The five strategies used in the T4 tournament."""
    return [
        boulware(),
        conceder(),
        linear(),
        TitForTatStrategy(),
        FirmStrategy(),
    ]
