"""Bridging between :class:`PortLabeledGraph` and ``networkx`` graphs.

``networkx`` graphs carry no port labels, so :func:`from_networkx` must
invent them: ports at each node are assigned over the incident edges either
in sorted neighbor order (deterministic, default) or shuffled with a
provided random generator (to model adversarial port assignments).
``networkx`` is not a declared dependency, so only :func:`to_networkx`
imports it, when called.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable, Mapping

from repro.graphs.port_graph import PortEdge, PortLabeledGraph

if TYPE_CHECKING:
    import networkx as nx


def from_networkx(
    graph: nx.Graph,
    rng: random.Random | None = None,
) -> tuple[PortLabeledGraph, Mapping[Hashable, int]]:
    """Convert an undirected ``networkx`` graph into a port-labeled graph.

    Returns the converted graph and the mapping from the original node
    objects to the integer node ids used internally.  Self-loops are
    rejected; multigraphs are not supported (use simple graphs).
    """
    if graph.is_directed():
        raise ValueError("only undirected graphs can carry symmetric port labels")
    if graph.is_multigraph():
        raise ValueError("multigraphs are not supported by this converter")
    try:
        nodes = sorted(graph.nodes)
    except TypeError:  # mixed node types are not mutually orderable
        nodes = sorted(graph.nodes, key=repr)
    index = {node: i for i, node in enumerate(nodes)}

    incident: list[list[int]] = [[] for _ in nodes]
    for a, b in graph.edges:
        if a == b:
            raise ValueError(f"self-loop at {a!r} not allowed in the agent model")
        incident[index[a]].append(index[b])
        incident[index[b]].append(index[a])

    ports: list[dict[int, int]] = []
    for u, nbrs in enumerate(incident):
        ordered = sorted(nbrs)
        if rng is not None:
            rng.shuffle(ordered)
        ports.append({v: p for p, v in enumerate(ordered)})

    edges = [
        PortEdge(index[a], ports[index[a]][index[b]], index[b], ports[index[b]][index[a]])
        for a, b in graph.edges
    ]
    return PortLabeledGraph.from_edges(len(nodes), edges), index


def to_networkx(graph: PortLabeledGraph) -> nx.Graph:
    """Convert back to ``networkx``; port labels become edge attributes.

    The attribute ``ports`` on edge ``(u, v)`` is a dict
    ``{u: port_at_u, v: port_at_v}``.
    """
    import networkx as nx

    result = nx.Graph()
    result.add_nodes_from(range(graph.num_nodes))
    for edge in graph.edges():
        result.add_edge(edge.u, edge.v, ports={edge.u: edge.port_u, edge.v: edge.port_v})
    return result
