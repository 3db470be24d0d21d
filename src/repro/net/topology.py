"""Overlay topologies for the agora's peer network.

The Open Agora is "a distributed environment of independent information
systems"; we model its overlay as an undirected graph whose edges carry
latency and bandwidth.  The overlay is a random (Erdős–Rényi) graph,
forced to be connected so every peer is reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import networkx as nx
import numpy as np

from repro.sim.rng import ScopedStreams


@dataclass(frozen=True)
class LinkSpec:
    """Properties of one overlay link."""

    latency: float  # one-way propagation delay (virtual time units)
    bandwidth: float  # payload units per virtual time unit


class Topology:
    """An overlay graph with per-link latency/bandwidth.

    Node identifiers are strings ``"n0" … "n{k-1}"``.
    """

    def __init__(self, graph: nx.Graph, links: Dict[Tuple[str, str], LinkSpec]):
        if graph.number_of_nodes() == 0:
            raise ValueError("topology must have at least one node")
        if not nx.is_connected(graph):
            raise ValueError("topology must be connected")
        self.graph = graph
        self._links = links

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        """Sorted node identifiers."""
        return sorted(self.graph.nodes)

    def neighbors(self, node: str) -> List[str]:
        """Sorted neighbours of ``node``."""
        return sorted(self.graph.neighbors(node))

    def link(self, a: str, b: str) -> LinkSpec:
        """Return the link spec for edge ``(a, b)`` in either orientation."""
        key = (a, b) if (a, b) in self._links else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def shortest_path(self, source: str, target: str) -> List[str]:
        """Latency-weighted shortest path (node list, inclusive)."""
        return nx.shortest_path(self.graph, source, target, weight="latency")

    def path_latency(self, path: Iterable[str]) -> float:
        """Sum of link latencies along ``path``."""
        path = list(path)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.link(a, b).latency
        return total

    def __repr__(self) -> str:
        return (
            f"Topology(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.graph.number_of_edges()})"
        )


def _assign_links(
    graph: nx.Graph,
    streams: ScopedStreams,
    latency_range: Tuple[float, float],
    bandwidth_range: Tuple[float, float],
) -> Dict[Tuple[str, str], LinkSpec]:
    rng = streams.stream("links")
    links: Dict[Tuple[str, str], LinkSpec] = {}
    for a, b in sorted(graph.edges):
        latency = float(rng.uniform(*latency_range))
        bandwidth = float(rng.uniform(*bandwidth_range))
        graph.edges[a, b]["latency"] = latency
        links[(a, b)] = LinkSpec(latency=latency, bandwidth=bandwidth)
    return links


def _relabel(graph: nx.Graph) -> nx.Graph:
    mapping = {old: f"n{index}" for index, old in enumerate(sorted(graph.nodes))}
    return nx.relabel_nodes(graph, mapping)


def _ensure_connected(graph: nx.Graph, rng: np.random.Generator) -> nx.Graph:
    """Join disconnected components with random bridge edges."""
    components = [sorted(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        a = components[0][int(rng.integers(len(components[0])))]
        b = components[1][int(rng.integers(len(components[1])))]
        graph.add_edge(a, b)
        components = [sorted(c) for c in nx.connected_components(graph)]
    return graph


def random_topology(
    n_nodes: int,
    streams: ScopedStreams,
    edge_probability: float = 0.2,
    latency_range: Tuple[float, float] = (0.01, 0.2),
    bandwidth_range: Tuple[float, float] = (10.0, 100.0),
) -> Topology:
    """Connected Erdős–Rényi overlay."""
    rng = streams.stream("topology")
    graph = nx.gnp_random_graph(n_nodes, edge_probability, seed=int(rng.integers(2**31)))
    graph = _ensure_connected(graph, rng)
    graph = _relabel(graph)
    links = _assign_links(graph, streams, latency_range, bandwidth_range)
    return Topology(graph, links)
