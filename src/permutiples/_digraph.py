"""Small directed-graph routines shared by the graph modules.

Plain dict-of-lists adjacency.  Strong connectivity takes two depth-first
passes, forward then backward (Sharir's method).  The depth-bounded cycle
search walks from each start through the vertices above it, pruned by
each vertex's distance back to the start, so every elementary cycle of at
most the given length comes out once, from its smallest vertex.  A cycle
on b vertices has at most b edges, so a bound of b finds them all.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import CapExceededError


def strongly_connected_components(
    vertices: Iterable[int], adj: Mapping[int, Sequence[int]]
) -> list[list[int]]:
    """The strongly connected components of every vertex reached, each sorted.

    The first pass lists vertices as they finish and files each edge it
    reads under its target; the second, latest-finished first, gathers each
    unplaced vertex with every unplaced vertex that reaches it.
    """
    finished: list[int] = []
    into: dict[int, list[int]] = {}
    seen: set[int] = set()
    for root in vertices:
        if root not in seen:
            seen.add(root)
            path, frames = [root], [iter(adj.get(root, ()))]
            while frames:
                for w in frames[-1]:
                    into.setdefault(w, []).append(path[-1])
                    if w not in seen:
                        seen.add(w)
                        path.append(w)
                        frames.append(iter(adj.get(w, ())))
                        break
                else:
                    frames.pop()
                    finished.append(path.pop())
    components: list[list[int]] = []
    for root in reversed(finished):
        if root in seen:  # still in seen: not yet placed
            seen.remove(root)
            comp = [root]
            for v in comp:  # comp grows as the backward walk reaches more
                for u in into.get(v, ()):
                    if u in seen:
                        seen.remove(u)
                        comp.append(u)
            components.append(sorted(comp))
    return components


def elementary_cycles(
    vertices: Iterable[int],
    adj: Mapping[int, Sequence[int]],
    length: int,
    limit: int,
) -> list[list[int]]:
    """The elementary cycles of at most `length` edges, each as a vertex list.

    Each cycle appears once, rotated so its smallest vertex comes first;
    self-loops come out as single-vertex lists.  From each start s the walk
    goes only through vertices above s and steps to a vertex w only when w
    is off the path and the path's edges plus w's distance back to s stay
    within `length`.  Those distances come from a breadth-first search
    toward s, stopped at `length`, so the work follows the length and not
    the size of the graph.  Raises CapExceededError as soon as more than
    `limit` cycles have been seen.
    """
    verts = sorted(set(vertices))
    into: dict[int, list[int]] = {v: [] for v in verts}
    for v in verts:
        for w in adj.get(v, ()):
            into[w].append(v)
    found: list[list[int]] = []
    for s in verts:
        # dist[v]: fewest edges from v back to s through vertices above s
        dist = {s: 0}
        frontier = [s]
        for step in range(1, length):
            reached = []
            for w in frontier:
                for v in into[w]:
                    if v > s and v not in dist:
                        dist[v] = step
                        reached.append(v)
            if not reached:
                break
            frontier = reached
        # One successor iterator per path vertex, on an explicit stack; a
        # vertex with no distance is more than `length` - 1 edges from s.
        # Paths can run b vertices deep, so membership is a set, not a scan.
        path = [s]
        on_path = {s}
        frames = [iter(adj.get(s, ()))]
        while frames:
            for w in frames[-1]:
                if w == s:
                    found.append(path.copy())
                    if len(found) > limit:
                        raise CapExceededError(f"more than {limit} elementary cycles")
                elif w not in on_path and len(path) + dist.get(w, length) <= length:
                    path.append(w)
                    on_path.add(w)
                    frames.append(iter(adj[w]))
                    break
            else:
                frames.pop()
                on_path.discard(path.pop())
    return found
