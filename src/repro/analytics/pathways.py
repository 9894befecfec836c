"""Care-pathway mining: process analysis over event sequences.

The project's purpose is to "monitor, control and trace the clinical and
assistive processes" (§1).  Beyond volumes (:mod:`~repro.analytics.monitor`),
the governing body wants the *process view*: which event typically follows
which (discharge → home care → telecare?), where pathways start and end,
and how long transitions take.

:class:`PathwayMiner` builds that view from the controller's id map — each
citizen's event sequence ordered by publication time — as a directed
transition graph (:mod:`networkx`).  Like the monitor, it touches no
detail payloads, and transition counts are small-cell suppressed before
publication.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import networkx as nx

from repro.analytics.suppression import SuppressedCount, suppress
from repro.core.controller import DataController
from repro.exceptions import ConfigurationError

#: Synthetic nodes marking pathway boundaries.
START = "__START__"
END = "__END__"


@dataclass(frozen=True)
class Transition:
    """One published pathway edge."""

    source: str
    target: str
    count: SuppressedCount
    median_gap_seconds: float | None


class PathwayMiner:
    """Mines the event-type transition structure of citizens' pathways."""

    def __init__(self, controller: DataController,
                 suppression_threshold: int = 5) -> None:
        if suppression_threshold < 1:
            raise ConfigurationError("suppression threshold must be at least 1")
        self._controller = controller
        self.threshold = suppression_threshold

    # -- sequences -----------------------------------------------------------

    def sequences(self) -> dict[str, list[tuple[str, float]]]:
        """Per-citizen event sequences: subject → [(event type, time)].

        Built from the id map (event type + publication time + subject),
        never from payloads.
        """
        per_subject: dict[str, list[tuple[str, float]]] = defaultdict(list)
        for entry in self._controller.id_map.entries():
            per_subject[entry.subject_ref].append(
                (entry.event_type, entry.published_at)
            )
        for events in per_subject.values():
            events.sort(key=lambda pair: pair[1])
        return dict(per_subject)

    # -- graph ------------------------------------------------------------------

    def transition_graph(self) -> nx.DiGraph:
        """The raw (unsuppressed) transition multigraph as a weighted DiGraph.

        Nodes are event types plus the synthetic ``START``/``END`` markers;
        edge attribute ``count`` is the number of observed transitions and
        ``gaps`` the list of inter-event delays.  Internal — publication
        goes through :meth:`transitions`, which suppresses small counts.
        """
        graph = nx.DiGraph()
        for events in self.sequences().values():
            path = [START] + [event_type for event_type, _ in events] + [END]
            times = [None] + [moment for _, moment in events] + [None]
            for index in range(len(path) - 1):
                source, target = path[index], path[index + 1]
                if not graph.has_edge(source, target):
                    graph.add_edge(source, target, count=0, gaps=[])
                graph[source][target]["count"] += 1
                if times[index] is not None and times[index + 1] is not None:
                    graph[source][target]["gaps"].append(
                        times[index + 1] - times[index]
                    )
        return graph

    def transitions(self) -> list[Transition]:
        """The publishable transition list, suppression-protected.

        Suppressed edges report ``<k`` counts and hide their timing (a
        median over fewer than k gaps could expose an individual's
        trajectory).
        """
        results = []
        graph = self.transition_graph()
        for source, target, data in graph.edges(data=True):
            count = suppress(data["count"], self.threshold)
            median_gap: float | None = None
            if not count.suppressed and data["gaps"]:
                gaps = sorted(data["gaps"])
                median_gap = gaps[len(gaps) // 2]
            results.append(Transition(source, target, count, median_gap))
        results.sort(key=lambda t: (-(t.count.value or 0), t.source, t.target))
        return results

    # -- derived views ---------------------------------------------------------------

    def common_pathways(self, length: int = 3, top: int = 5) -> list[tuple[tuple[str, ...], int]]:
        """The most frequent event-type n-grams across citizens.

        Returns up to ``top`` (pathway, count) pairs whose count clears the
        suppression threshold.
        """
        if length < 2:
            raise ConfigurationError("pathway length must be at least 2")
        counts: dict[tuple[str, ...], int] = defaultdict(int)
        for events in self.sequences().values():
            types = [event_type for event_type, _ in events]
            for index in range(len(types) - length + 1):
                counts[tuple(types[index:index + length])] += 1
        eligible = [
            (pathway, count) for pathway, count in counts.items()
            if count >= self.threshold
        ]
        eligible.sort(key=lambda pair: (-pair[1], pair[0]))
        return eligible[:top]

    def entry_points(self) -> dict[str, SuppressedCount]:
        """How pathways start: counts of first events per class."""
        graph = self.transition_graph()
        if START not in graph:
            return {}
        return {
            target: suppress(graph[START][target]["count"], self.threshold)
            for target in graph.successors(START)
        }

    def hub_classes(self, top: int = 3) -> list[str]:
        """Event classes most central to pathways (by degree centrality)."""
        graph = self.transition_graph()
        graph.remove_nodes_from([n for n in (START, END) if n in graph])
        if not graph:
            return []
        centrality = nx.degree_centrality(graph)
        ranked = sorted(centrality, key=lambda node: (-centrality[node], node))
        return ranked[:top]

    def render(self) -> str:
        """Printable pathway report."""
        lines = [f"CARE-PATHWAY REPORT (suppression k = {self.threshold})",
                 "transitions:"]
        for transition in self.transitions():
            gap = (f"  median gap {transition.median_gap_seconds:.0f}s"
                   if transition.median_gap_seconds is not None else "")
            lines.append(f"  {transition.source:>22} -> {transition.target:<22} "
                         f"{transition.count.display:>6}{gap}")
        lines.append("entry points:")
        for name, cell in sorted(self.entry_points().items()):
            lines.append(f"  {name:<24} {cell.display}")
        hubs = self.hub_classes()
        if hubs:
            lines.append("hub classes: " + ", ".join(hubs))
        return "\n".join(lines)
