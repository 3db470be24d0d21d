"""The paper's running scenario, assembled.

Iris is "a young researcher investigating the different styles of folk
jewelry worn across Europe"; Jason works "on traditional dance forms" at
another institution.  This module builds the scenario on top of a live
agora: the two profiles, their friendship, Iris's standing feeds over
auction catalogs and magazines, and her personal information base, which
she shares with Jason.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agora import Agora
from repro.core.consumer import Consumer
from repro.multimodal.annotations import AnnotationService
from repro.personalization.profile import UserProfile
from repro.personalization.store import ProfileStore
from repro.qos.vector import QoSWeights
from repro.social.graph import SocialGraph
from repro.social.privacy import PrivacyRegistry
from repro.sources.personal import PersonalInformationBase
from repro.uncertainty.risk import risk_averse, risk_seeking
from repro.workloads.queries import QueryWorkloadGenerator


def iris_profile(agora: Agora) -> UserProfile:
    """Iris: folk-jewelry specialist, quality-conscious, careful."""
    space = agora.topic_space
    interests = (
        0.5 * space.basis("folk-jewelry", 0.95)
        + 0.25 * space.basis("museum-exhibitions", 0.95)
        + 0.25 * space.basis("auction-market", 0.95)
    )
    return UserProfile(
        user_id="iris",
        interests=interests,
        qos_weights=QoSWeights(completeness=2.0, correctness=2.0, trust=1.5),
        risk=risk_averse(3.0),
        negotiation_style="boulware",
        mode_preference={"query": 0.4, "browse": 0.3, "feed": 0.3},
        price_sensitivity=0.02,
    )


def jason_profile(agora: Agora) -> UserProfile:
    """Jason: traditional dance forms, relaxed and serendipitous."""
    space = agora.topic_space
    interests = (
        0.6 * space.basis("dance-forms", 0.95)
        + 0.4 * space.basis("traditional-costume", 0.95)
    )
    return UserProfile(
        user_id="jason",
        interests=interests,
        qos_weights=QoSWeights(response_time=0.5, freshness=2.0),
        risk=risk_seeking(2.0),
        negotiation_style="conceder",
        mode_preference={"query": 0.2, "browse": 0.6, "feed": 0.2},
        price_sensitivity=0.03,
    )


@dataclass
class IrisScenario:
    """The assembled scenario: agora + the two researchers + services."""

    agora: Agora
    iris: Consumer
    jason: Consumer
    social_graph: SocialGraph
    privacy: PrivacyRegistry
    profile_store: ProfileStore
    annotations: AnnotationService
    workload: QueryWorkloadGenerator
    #: Iris's personal information base, shared with Jason
    personal_base: PersonalInformationBase


def build_iris_scenario(agora: Agora) -> IrisScenario:
    """Wire the running scenario on top of ``agora``."""
    iris = Consumer(agora, iris_profile(agora))
    jason = Consumer(agora, jason_profile(agora))

    graph = SocialGraph()
    graph.befriend("iris", "jason", strength=0.9)
    privacy = PrivacyRegistry(graph)

    store = ProfileStore()
    store.save(iris.active_profile())
    store.save(jason.active_profile())

    base = PersonalInformationBase(
        "iris", agora.engine, agora.sim.rng.spawn("iris-pib"),
    )
    base.share_with("jason")

    annotations = AnnotationService(feeds=agora.feeds)
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary,
        agora.sim.rng.spawn("iris-workload"), corpus=agora.corpus,
    )
    return IrisScenario(
        agora=agora,
        iris=iris,
        jason=jason,
        social_graph=graph,
        privacy=privacy,
        profile_store=store,
        annotations=annotations,
        workload=workload,
        personal_base=base,
    )
