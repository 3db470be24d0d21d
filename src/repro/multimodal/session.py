"""Multi-modal interaction sessions.

"Users should be able to interact with the Open Agora in multiple ways,
switching at will from one to the other, using the results of one action
as input to the next" (§9).  The :class:`InteractionSession` interleaves
querying, browsing and feed-checking according to the profile's mode
preference, pools everything discovered, and measures time-to-discovery —
the metric of experiment T10.

The session is decoupled from the agora through three mode callables so
it can be driven by the real facade or by test stubs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.data.items import InformationItem
from repro.personalization.profile import INTERACTION_MODES, UserProfile
from repro.sim.rng import ScopedStreams

ModeAction = Callable[[], List[InformationItem]]


@dataclass
class Discovery:
    """One item found during a session, with attribution."""

    item: InformationItem
    mode: str
    step: int


class InteractionSession:
    """One user's interleaved multi-modal session.

    Parameters
    ----------
    profile:
        Drives the mode-selection distribution.
    actions:
        Mode name → zero-arg callable returning newly seen items.
    streams:
        RNG scope for mode sampling.
    enabled_modes:
        Restrict to a subset of modes (single-mode baselines in T10).
    """

    def __init__(
        self,
        profile: UserProfile,
        actions: Dict[str, ModeAction],
        streams: ScopedStreams,
        enabled_modes: Optional[Sequence[str]] = None,
    ):
        unknown = set(actions) - set(INTERACTION_MODES)
        if unknown:
            raise ValueError(f"unknown modes: {sorted(unknown)}")
        if enabled_modes is None:
            enabled_modes = sorted(actions)
        enabled = [m for m in enabled_modes if m in actions]
        if not enabled:
            raise ValueError("session needs at least one enabled mode with an action")
        self.profile = profile
        self.actions = dict(actions)
        self.enabled_modes = sorted(enabled)
        self._rng = streams.stream(f"session.{profile.user_id}")
        self.discoveries: List[Discovery] = []
        self._seen: set = set()
        self.steps_taken = 0
        self.mode_counts: Dict[str, int] = {mode: 0 for mode in self.enabled_modes}

    # ------------------------------------------------------------------
    def _choose_mode(self) -> str:
        weights = np.array(
            [self.profile.mode_preference.get(mode, 0.0) for mode in self.enabled_modes]
        )
        if weights.sum() <= 0:
            weights = np.ones(len(self.enabled_modes))
        weights = weights / weights.sum()
        index = int(self._rng.choice(len(self.enabled_modes), p=weights))
        return self.enabled_modes[index]

    def step(self, mode: Optional[str] = None) -> List[Discovery]:
        """Perform one interaction step; returns *new* discoveries."""
        if mode is None:
            mode = self._choose_mode()
        if mode not in self.actions:
            raise KeyError(f"no action bound for mode {mode!r}")
        self.steps_taken += 1
        self.mode_counts[mode] = self.mode_counts.get(mode, 0) + 1
        found = self.actions[mode]()
        new: List[Discovery] = []
        for item in found:
            if item.item_id in self._seen:
                continue
            self._seen.add(item.item_id)
            discovery = Discovery(item=item, mode=mode, step=self.steps_taken)
            self.discoveries.append(discovery)
            new.append(discovery)
        return new

    def run(self, steps: int) -> List[Discovery]:
        """Run ``steps`` interleaved interactions."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        for __ in range(steps):
            self.step()
        return list(self.discoveries)

    # ------------------------------------------------------------------
    def steps_to_find(
        self, predicate: Callable[[InformationItem], bool], count: int,
    ) -> Optional[int]:
        """The step at which the ``count``-th matching item was found.

        Returns ``None`` when fewer than ``count`` matching items were
        discovered (the time-to-discovery metric of T10).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        found = 0
        for discovery in self.discoveries:
            if predicate(discovery.item):
                found += 1
                if found >= count:
                    return discovery.step
        return None
