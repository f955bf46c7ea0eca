"""Content-addressed lookups and brute-force oracles used across test files."""

import json
from collections import Counter
from itertools import combinations, permutations

from permutiples import (
    DigitPair,
    PermutipleWitness,
    WitnessReport,
    brute_force_search,
    carry_sequence,
    digits_of,
    find_permutation,
    value,
)
from permutiples import euler


def cycle_index(inventory, edges):
    """Index of the cycle with exactly this edge set; cycles are matched by
    content so the tests never depend on how the inventory happens to be
    numbered."""
    target = {tuple(e) for e in edges}
    for i, c in enumerate(inventory):
        if {tuple(e) for e in c.edges} == target:
            return i
    raise AssertionError(f"no cycle with edges {sorted(target)}")


def walked_circuits(monkeypatch):
    """A list that collects every circuit euler's walker yields from now on."""
    walked = []
    circuits = euler._circuits

    def spy(*args):
        for labels in circuits(*args):
            walked.append(labels)
            yield labels

    monkeypatch.setattr(euler, "_circuits", spy)
    return walked


def brute_force_cycles(graph):
    """Every elementary cycle by direct path extension, as canonical edge tuples.

    Independent of the package's cycle search: grows simple paths whose first
    vertex is their minimum and closes them when an edge returns to the start.
    Exponential, fine for small bases.
    """
    edges = {tuple(e) for e in graph.edges}
    b = graph.params.b
    found = set()

    def extend(path):
        v = path[-1]
        for w in range(b):
            if (v, w) not in edges:
                continue
            if w == path[0]:
                cyc = tuple(
                    DigitPair(path[i], path[(i + 1) % len(path)]) for i in range(len(path))
                )
                found.add(cyc)
            elif w > path[0] and w not in path:
                extend(path + [w])

    for s in range(b):
        extend([s])
    return found


def peel_cycle_cover(pairs):
    """Split a multiset of digit pairs into elementary cycles by walking until
    a vertex repeats and cutting out the loop.  Returns a list of canonical
    edge tuples, or None when the multiset is not balanced enough to cover."""
    from collections import Counter, defaultdict

    remaining = Counter(tuple(e) for e in pairs)
    cycles = []
    while remaining:
        adj = defaultdict(list)
        for (d1, d2), k in remaining.items():
            if k > 0:
                adj[d1].append(d2)
        start = min(adj)
        path = [start]
        seen = {start: 0}
        while True:
            v = path[-1]
            if not adj.get(v):
                return None
            w = min(adj[v])
            if w in seen:
                cut = path[seen[w] :] + []
                cyc_vertices = cut
                k = len(cyc_vertices)
                edge_list = [
                    (cyc_vertices[i], cyc_vertices[(i + 1) % k]) for i in range(k)
                ]
                for e in edge_list:
                    remaining[e] -= 1
                    if remaining[e] == 0:
                        del remaining[e]
                i0 = cyc_vertices.index(min(cyc_vertices))
                rot = cyc_vertices[i0:] + cyc_vertices[:i0]
                cycles.append(
                    tuple(DigitPair(rot[i], rot[(i + 1) % k]) for i in range(k))
                )
                break
            seen[w] = len(path)
            path.append(w)
            adj[v].remove(w)
    return cycles


def reference_carry_step(d1, d2, p):
    """Carry step (c1, c2) of a digit pair from first principles, or None.

    The reference the package's carry rule is checked against, in
    plain ints: the pair is allowed when the residue (d1 - n*d2) % b is at
    most n - 1, and its step is the (c1, c2) in 0..n-1 that satisfies the
    recurrence b*c2 - c1 == n*d2 - d1, found by trying every c2.  Asserts
    that the two rules agree: an allowed pair has exactly one step and a
    rejected pair has none.
    """
    n, b = p.n, p.b
    steps = []
    for c2 in range(n):
        c1 = b * c2 - (n * d2 - d1)
        if 0 <= c1 < n:
            steps.append((c1, c2))
    allowed = (d1 - n * d2) % b <= n - 1
    assert len(steps) == (1 if allowed else 0), (d1, d2, p, steps)
    return steps[0] if allowed else None


def permutation_det(m):
    """Determinant of a square int matrix by the Leibniz sum over permutations.

    Independent of the package's elimination; exponential, fine up to 6x6.
    """
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def reference_strings(g, forbid_zero=False):
    """Label tuples of g's Eulerian circuits from state 0, in walk order.

    The reference enumerate_strings is checked against: a forward recursive
    depth-first walk over Counter(g.multiedges) rows, independent of the
    package's closer-first walk, trying each state's out-rows by (to-state,
    label) and taking one copy of a label at a time.  enumerate_strings
    lists the same tuples sorted by value.  With forbid_zero it drops
    circuits whose last label, the one writing the leading product digit,
    has d1 == 0.  Returns [] when g has no Eulerian circuit from 0.
    Recursion is as deep as g has edges, fine for the small unions the
    tests draw.
    """
    rows = {}
    for (c1, c2, label), mult in sorted(Counter(g.multiedges).items()):
        rows.setdefault(c1, []).append([c2, label, mult])
    total = len(g.multiedges)
    path, found = [], []

    def walk(state):
        if len(path) == total:
            if state == 0 and not (forbid_zero and path[-1].d1 == 0):
                found.append(tuple(path))
            return
        for row in rows.get(state, ()):
            if row[2]:
                row[2] -= 1
                path.append(row[1])
                walk(row[0])
                path.pop()
                row[2] += 1

    if total:
        walk(0)
    return found


def backtracking_label_distinct(g, forbid_zero=False):
    """Label-distinct Eulerian circuits of g from state 0, by exhaustive walk.

    The reference count_circuits is checked against: it walks every circuit
    (reference_strings), taking one copy of a label at a time, instead of
    dividing the BEST determinant.  With forbid_zero it counts only circuits
    whose last label, the one writing the leading product digit, has
    d1 != 0.  Returns 0 for the empty multigraph.  Exponential, fine for the
    small unions the tests draw.
    """
    return len(reference_strings(g, forbid_zero))


def naive_permutiples(p, length):
    """Products m of every length-digit permutiple for (n, b), in increasing order.

    The reference brute_force_search is checked against: it tries every
    multiplicand whose product has `length` digits, splits both numbers into
    zero-padded digits with divmod and compares the sorted digit lists.  No
    half split, no signature tables.  Linear in b**length, fine for small scans.
    """

    def padded_digits(x):
        digits = []
        for _ in range(length):
            x, d = divmod(x, p.b)
            digits.append(d)
        return digits

    found = []
    for q in range((p.b ** (length - 1) + p.n - 1) // p.n, (p.b**length - 1) // p.n + 1):
        m = p.n * q
        if sorted(padded_digits(m)) == sorted(padded_digits(q)):
            found.append(m)
    return found


def naive_palintiple_count(p, length):
    """How many length-digit m = n*q have q's zero-padded digits reversed.

    The reference palintiple_count is checked against: every multiplicand,
    plain-int divmod digits, no carry-step table, no automaton.
    """

    def padded_digits(x):
        digits = []
        for _ in range(length):
            x, d = divmod(x, p.b)
            digits.append(d)
        return digits

    lo, hi = p.b ** (length - 1), p.b**length
    return sum(
        padded_digits(p.n * q) == padded_digits(q)[::-1]
        for q in range((lo + p.n - 1) // p.n, (hi - 1) // p.n + 1)
    )


def reference_verify_witness(w):
    """The per-digit generator form of verify_witness, kept as its reference.

    Counter multisets, generator-driven all() over the carry recurrence and
    the carry bound, and an index-by-index sigma check.  verify_witness
    must report the same six flags on every witness.
    """
    n, b = w.params.n, w.params.b
    ds = w.digits.digits
    qs = w.permuted.digits
    cs = w.carries.carries
    ell = len(ds)
    if w.sigma is None:
        sigma_consistent = True
    else:
        sigma_consistent = len(set(w.sigma)) == ell and all(
            qs[j] == ds[w.sigma[j]] for j in range(ell)
        )
    return WitnessReport(
        multisets_equal=Counter(ds) == Counter(qs),
        value_relation=value(w.digits) == n * value(w.permuted),
        carries_consistent=all(
            b * cs[j + 1] - cs[j] == n * qs[j] - ds[j] for j in range(ell)
        ),
        final_carry_zero=cs[-1] == 0,
        carries_bounded=all(0 <= c <= n - 1 for c in cs),
        sigma_consistent=sigma_consistent,
    )


def reference_witness(p, length, m):
    """The witness of the length-digit hit m = n*q through the validating route.

    The reference brute_force_search's witnesses are checked against:
    digits_of for both numbers, carry_sequence for the carries
    (which raises on any step that is not exact), find_permutation, and the
    public PermutipleWitness constructor.
    """
    dm = digits_of(m, p.b, length)
    dq = digits_of(m // p.n, p.b, length)
    return PermutipleWitness(p, dm, dq, carry_sequence(dm, dq, p), find_permutation(dm, dq))


def reference_search_output(p, length, fmt):
    """What `search` prints, rendered from brute_force_search's witnesses.

    The reference the CLI's hit-based search output is checked against:
    full witnesses, value() of their digit vectors, each witness's own
    str() in the table, and json.dumps(..., indent=2) for JSON.
    """
    witnesses = brute_force_search(p, length)
    if fmt == "json":
        payload = {
            "params": {"n": p.n, "b": p.b},
            "length": length,
            "count": len(witnesses),
            "witnesses": [
                {
                    "digits": list(w.digits.msd),
                    "permuted": list(w.permuted.msd),
                    "value": value(w.digits),
                    "multiplicand": value(w.permuted),
                }
                for w in witnesses
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"{len(witnesses)} permutiples with {length} base-{p.b} digits for n={p.n}"]
    lines += [f"  {value(w.digits)} = {p.n} * {value(w.permuted)}    {w}" for w in witnesses]
    return "\n".join(lines) + "\n"
