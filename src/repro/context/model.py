"""Context model.

"Context is a rather complicated concept with several dimensions,
including time, location, general task performed, other people's presence,
and immediately preceding activity" (§8, citing Dey & Abowd).  We model
exactly those five dimensions as a flat record with discrete values —
enough structure to condition profiles on, simple enough to infer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

CONTEXT_DIMENSIONS = (
    "time_of_day",
    "location",
    "task",
    "companions",
    "previous_activity",
)

TIMES_OF_DAY = ("morning", "afternoon", "evening")
TASKS = ("project-start", "deep-research", "paper-writing", "leisure")
ACTIVITIES = ("query", "browse", "feed", "idle")


@dataclass(frozen=True)
class Context:
    """One snapshot of a user's situation.

    ``companions`` is a sorted tuple of user ids present (empty = alone).
    """

    time_of_day: str = "morning"
    location: str = "office"
    task: str = "deep-research"
    companions: Tuple[str, ...] = ()
    previous_activity: str = "idle"

    def __post_init__(self) -> None:
        if self.time_of_day not in TIMES_OF_DAY:
            raise ValueError(f"unknown time_of_day {self.time_of_day!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.previous_activity not in ACTIVITIES:
            raise ValueError(f"unknown previous_activity {self.previous_activity!r}")
        object.__setattr__(self, "companions", tuple(sorted(self.companions)))

    # ------------------------------------------------------------------
    def value(self, dimension: str) -> object:
        """The value of one context dimension."""
        if dimension not in CONTEXT_DIMENSIONS:
            raise KeyError(f"unknown context dimension {dimension!r}")
        return getattr(self, dimension)

    def with_(self, **changes) -> "Context":
        """A copy with the given dimensions replaced."""
        return replace(self, **changes)
