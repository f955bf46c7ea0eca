"""Small directed-graph routines shared by the graph modules.

Plain dict-of-lists adjacency, nothing fancy.  The cycle search is Johnson's
blocked backtracking, run once per start vertex inside the strongly
connected component of the still-unprocessed subgraph, so every elementary
cycle is produced exactly once and starts at its smallest vertex.  The
short-cycle search finds the same cycles up to a given length by a depth-
bounded walk, pruned by each vertex's distance back to the start.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Mapping, Sequence

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
    limit: int | None = None,
) -> list[list[int]]:
    """All elementary directed cycles, each as a vertex list.

    Each cycle appears once, rotated so its smallest vertex comes first;
    self-loops come out as single-vertex lists.  Raises CapExceededError as
    soon as more than `limit` cycles have been seen.
    """
    verts = sorted(set(vertices))
    found: list[list[int]] = []

    def record(cycle: list[int]) -> None:
        found.append(cycle)
        if limit is not None and len(found) > limit:
            raise CapExceededError(f"more than {limit} elementary cycles")

    for v in verts:
        if v in adj.get(v, ()):
            record([v])

    loopless = {v: [w for w in adj.get(v, ()) if w != v] for v in verts}
    for s in verts:
        sub = {v: [w for w in loopless[v] if w >= s] for v in verts if v >= s}
        comps = strongly_connected_components(sub.keys(), sub)
        comp = next(c for c in comps if s in c)
        if len(comp) < 2:
            continue
        comp_set = set(comp)
        cadj = {v: [w for w in sub[v] if w in comp_set] for v in comp}
        _blocked_search(s, cadj, record)
    return found


def short_cycles(
    vertices: Iterable[int],
    adj: Mapping[int, Sequence[int]],
    length: int,
    limit: int | None = None,
) -> list[list[int]]:
    """The elementary cycles of at most `length` edges, each as a vertex list.

    The same cycles as elementary_cycles keeps of that length, each rotated
    so its smallest vertex comes first, in another order.  From each start s
    the walk goes only through vertices above s and steps to a vertex w only
    when the path's edges plus w's distance back to s stay within `length`.
    Those distances come from a breadth-first search toward s, stopped at
    `length`, so the work follows the length and not the size of the graph.
    Raises CapExceededError as soon as more than `limit` cycles have been seen.
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
        path = [s]
        frames = [iter(adj.get(s, ()))]
        while frames:
            for w in frames[-1]:
                if w == s:
                    found.append(path.copy())
                    if limit is not None and len(found) > limit:
                        raise CapExceededError(f"more than {limit} elementary cycles")
                elif len(path) + dist.get(w, length) <= length and w not in path:
                    path.append(w)
                    frames.append(iter(adj[w]))
                    break
            else:
                frames.pop()
                path.pop()
    return found


def _blocked_search(
    start: int, adj: Mapping[int, Sequence[int]], record: Callable[[list[int]], None]
) -> None:
    # Johnson's circuit(): vertices stay blocked after a fruitless visit and
    # are freed through the barred lists only when a cycle is found.  It runs
    # on an explicit stack, one [successor iterator, cycle closed below]
    # frame per path vertex, so deep paths never reach the recursion limit.
    path = [start]
    blocked = {start}
    barred: dict[int, set[int]] = defaultdict(set)
    frames = [[iter(adj[start]), False]]
    while frames:
        frame = frames[-1]
        for w in frame[0]:
            if w == start:
                record(path.copy())
                frame[1] = True
            elif w not in blocked:
                blocked.add(w)
                path.append(w)
                frames.append([iter(adj[w]), False])
                break
        else:
            frames.pop()
            v = path.pop()
            if frame[1]:
                queue = [v]  # unblock v and whatever waits on it
                while queue:
                    u = queue.pop()
                    if u in blocked:
                        blocked.discard(u)
                        queue.extend(barred[u])
                        barred[u].clear()
                if frames:
                    frames[-1][1] = True
            else:
                for w in adj[v]:
                    barred[w].add(v)
