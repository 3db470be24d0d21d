"""Annotations and annotation-triggered comparisons.

"While examining the contents of a thesis from the repository, relevant
parts of it, whether specified by Iris through some annotation or
identified as important by the system, are compared against the catalog
material as well as other resources" (§9).

Annotating an item does two things here: it records the note (an
:class:`~repro.data.items.Annotation` object, itself an information item
that can live in a personal information base), and it spawns a standing
comparison in the feed service so future material is matched against the
annotated item automatically.  Parts the system would identify as
important on its own are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.data.items import Annotation, InformationItem, make_item_id
from repro.multimodal.feeds import FeedService, StandingQuery


@dataclass
class AnnotationRecord:
    """An annotation plus the standing comparison it drives."""

    annotation: Annotation
    standing: Optional[StandingQuery] = None


class AnnotationService:
    """Creates annotations and wires them into the feed machinery."""

    def __init__(self, feeds: Optional[FeedService] = None, auto_compare: bool = True):
        self.feeds = feeds
        self.auto_compare = auto_compare and feeds is not None

    # ------------------------------------------------------------------
    def annotate(
        self,
        author_id: str,
        target: InformationItem,
        text: str = "",
        created_at: float = 0.0,
        comparison_threshold: float = 0.6,
    ) -> AnnotationRecord:
        """Attach a note to ``target``; optionally start a comparison.

        The annotation inherits the target's latent (the note is *about*
        that content), so the triggered standing query matches material
        similar to the annotated item.
        """
        annotation = Annotation(
            item_id=make_item_id("annotation"),
            domain=target.domain,
            latent=target.latent,
            created_at=created_at,
            author_id=author_id,
            target_item_id=target.item_id,
            text=text,
        )
        record = AnnotationRecord(annotation=annotation)
        if self.auto_compare:
            standing = StandingQuery(
                owner_id=author_id,
                comparison_items=[target],
                threshold=comparison_threshold,
            )
            assert self.feeds is not None
            self.feeds.register(standing)
            record.standing = standing
        return record
