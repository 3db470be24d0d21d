"""Context-conditional profiles.

A :class:`ConditionalProfile` is a base profile plus a list of
(rule, overlay) pairs.  Given a context, all matching overlays apply in
order of increasing specificity (more specific rules win on conflicting
parts) — the concrete design for "someone's (active) profile may be
different according to the context" (§8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.context.model import Context
from repro.context.rules import ActivationRule, ProfileOverlay
from repro.personalization.profile import UserProfile


@dataclass
class ConditionalProfile:
    """A profile whose active form depends on context."""

    base: UserProfile
    overlays: List[Tuple[ActivationRule, ProfileOverlay]] = field(default_factory=list)

    def add_overlay(self, rule: ActivationRule, overlay: ProfileOverlay) -> None:
        """Attach a (rule, overlay) pair."""
        self.overlays.append((rule, overlay))

    def active_profile(self, context: Context) -> UserProfile:
        """The profile in force under ``context``.

        Matching overlays apply in ascending specificity, so the most
        specific rule has the final word on any conflicting part.
        """
        matching = [
            (rule, overlay)
            for rule, overlay in self.overlays
            if rule.matches(context)
        ]
        matching.sort(key=lambda pair: pair[0].specificity)
        profile = self.base
        for __, overlay in matching:
            profile = overlay.apply(profile)
        return profile
