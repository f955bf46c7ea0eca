"""Small directed-graph routines shared by the graph modules.

Plain dict-of-lists adjacency, nothing fancy.  The cycle search is a
depth-bounded walk from each start vertex through the vertices above it,
pruned by each vertex's distance back to the start, so every elementary
cycle of at most the given length is produced exactly once and starts at its
smallest vertex.  An elementary cycle on b vertices has at most b edges, so a
bound of b finds them all.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import CapExceededError


def strongly_connected_components(
    vertices: Iterable[int], adj: Mapping[int, Sequence[int]]
) -> list[list[int]]:
    """Tarjan's strongly connected components, iterative.

    Returns the components as sorted vertex lists; singleton vertices with no
    cycle through them still form their own component.
    """
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    clock = 0

    for root in vertices:
        if root in order:
            continue
        order[root] = low[root] = clock
        clock += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in order:
                    order[w] = low[w] = clock
                    clock += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack and order[w] < low[v]:
                    low[v] = order[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == order[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
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
