"""Combinatorics of the standard permutohedron and its skeleta.

Conventions used everywhere in this package:

* The ground set is {1, ..., n}; subsets are stored as bitmasks where bit
  ``i - 1`` encodes membership of ``i``.
* A vertex of the permutohedron is the image tuple ``(v(1), ..., v(n))`` of a
  permutation, i.e. the literal point in R^n.
* The full flag of a vertex records, for each level d, the set of positions
  carrying the d largest values:  ``flag[d-1] = {p : v(p) >= n - d + 1}``.
* Words in the adjacent transpositions act by successive right
  multiplications (swap of two consecutive *positions*), read left to right.
  With that convention the word (2, 1) applied to the identity yields
  (3, 1, 2) and (1, 2) yields (2, 3, 1).

Everything is capped at n <= 7; the library is meant for exact desk-scale
computations, not asymptotics.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations

N_MAX = 7


def _check_n(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must be between 1 and {N_MAX}, got {n}")


# ---------------------------------------------------------------------------
# subset masks


def mask_from(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def mask_elems(mask: int) -> tuple[int, ...]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def mask_size(mask: int) -> int:
    return bin(mask).count("1")


def subsets_of_size(n: int, k: int):
    """All k-subsets of {1..n} as masks, in lexicographic element order.

    Empty for k < 0, matching the binomial-coefficient convention.
    """
    if k < 0:
        return
    for combo in combinations(range(1, n + 1), k):
        yield mask_from(combo)


def subset_str(mask: int) -> str:
    """Compact string form of a subset, e.g. {1,3,4} -> "134" (needs n <= 9)."""
    return "".join(str(e) for e in mask_elems(mask))


def mask_indicator(mask: int, n: int) -> tuple[int, ...]:
    """0/1 indicator vector of a subset mask in R^n.

    >>> mask_indicator(0b101, 4)
    (1, 0, 1, 0)
    """
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


def parse_subset(text) -> int:
    if isinstance(text, (list, tuple)):
        elems = [int(e) for e in text]
    else:
        elems = [int(c) for c in str(text)]
    if len(set(elems)) != len(elems) or any(e < 1 for e in elems):
        raise ValueError(f"not a valid subset: {text!r}")
    return mask_from(elems)


# ---------------------------------------------------------------------------
# permutations as image tuples


def is_permutation(v) -> bool:
    return sorted(v) == list(range(1, len(v) + 1))


def permutohedron_vertices(n: int) -> list[tuple[int, ...]]:
    _check_n(n)
    return sorted(permutations(range(1, n + 1)))


def perm_str(v) -> str:
    return "".join(str(x) for x in v)


def parse_perm(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        v = tuple(int(x) for x in text)
    else:
        v = tuple(int(c) for c in str(text))
    if not is_permutation(v):
        raise ValueError(f"not a permutation: {text!r}")
    return v


def vertex_to_flag(v) -> tuple[int, ...]:
    """Full flag of super-level sets of a vertex: flag[d-1] has size d.

    >>> [sorted(mask_elems(m)) for m in vertex_to_flag((2, 1, 3))]
    [[3], [1, 3], [1, 2, 3]]
    """
    n = len(v)
    flag = []
    m = 0
    for d in range(1, n + 1):
        thresh = n - d + 1
        m = mask_from(p for p in range(1, n + 1) if v[p - 1] >= thresh)
        flag.append(m)
    return tuple(flag)


def flag_to_vertex(flag) -> tuple[int, ...]:
    """Inverse of vertex_to_flag for a complete flag (sizes 1..n)."""
    n = len(flag)
    v = [0] * n
    prev = 0
    for d, m in enumerate(flag, start=1):
        if mask_size(m) != d or (prev & m) != prev:
            raise ValueError("not a complete flag")
        new = m & ~prev
        (p,) = mask_elems(new)
        v[p - 1] = n - d + 1
        prev = m
    return tuple(v)


# ---------------------------------------------------------------------------
# words and Bruhat order


def apply_right(v, i: int) -> tuple[int, ...]:
    """Right multiplication by the adjacent transposition of positions i, i+1."""
    w = list(v)
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def word_to_perm(word, n: int) -> tuple[int, ...]:
    v = tuple(range(1, n + 1))
    for i in word:
        v = apply_right(v, i)
    return v


def inversions(v) -> int:
    n = len(v)
    return sum(1 for i in range(n) for j in range(i + 1, n) if v[i] > v[j])


def reduced_word(v) -> tuple[int, ...]:
    """One reduced word for v (right-multiplication convention).

    >>> reduced_word((3, 1, 2))
    (2, 1)
    """
    w = list(v)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                swaps.append(i + 1)
                changed = True
    return tuple(reversed(swaps))


def bruhat_leq(a, b) -> bool:
    """Strong Bruhat order via the dominance criterion.

    a <= b iff for all i, k:  #{j <= i : a(j) >= k}  <=  #{j <= i : b(j) >= k}.
    The identity is the minimum and (n, ..., 2, 1) the maximum.
    """
    n = len(a)
    if n != len(b):
        raise ValueError("length mismatch")
    for i in range(1, n + 1):
        for k in range(2, n + 1):
            ca = sum(1 for j in range(i) if a[j] >= k)
            cb = sum(1 for j in range(i) if b[j] >= k)
            if ca > cb:
                return False
    return True


def bruhat_interval(lo, hi, n: int) -> list[tuple[int, ...]]:
    return [v for v in permutohedron_vertices(n) if bruhat_leq(lo, v) and bruhat_leq(v, hi)]


# ---------------------------------------------------------------------------
# two-dimensional faces


@dataclass(frozen=True)
class TwoFace:
    """A 2-face of the permutohedron, with its vertices in cyclic order.

    ``kind`` is "hexagon" or "square".  For hexagons ``flag_data`` is the pair
    (S, S + triple) of masks bounding the size-3 gap; for squares it is the
    pair of doubleton gaps ((A1, B1), (A2, B2)) ordered by inclusion level.
    The cyclic order starts at the lexicographically smallest vertex and
    proceeds toward the lexicographically smaller of its two neighbours.
    """

    kind: str
    vertices: tuple[tuple[int, ...], ...]
    flag_data: tuple

    def diagonals(self):
        vs = self.vertices
        half = len(vs) // 2
        return tuple((vs[i], vs[i + half]) for i in range(half))


def _ordered_partitions(n, sizes):
    """Ordered set partitions of {1..n} with the given block sizes."""
    if not sizes:
        yield ()
        return
    rest = list(range(1, n + 1))

    def rec(avail, idx):
        if idx == len(sizes):
            yield ()
            return
        for block in combinations(avail, sizes[idx]):
            remaining = [x for x in avail if x not in block]
            for tail in rec(remaining, idx + 1):
                yield (block,) + tail

    yield from rec(rest, 0)


def _chain_of(blocks) -> tuple[int, ...]:
    chain = []
    m = 0
    for b in blocks[:-1]:
        m |= mask_from(b)
        chain.append(m)
    return tuple(chain)


def _face_vertices_cyclic(full_flags):
    """Cyclic walk through full flags that pairwise differ in one constituent."""
    verts = sorted(flag_to_vertex(f) for f in full_flags)
    flags = {v: vertex_to_flag(v) for v in verts}

    def adjacent(u, w):
        return sum(1 for a, b in zip(flags[u], flags[w]) if a != b) == 1

    start = verts[0]
    nbrs = sorted(w for w in verts if w != start and adjacent(start, w))
    if len(nbrs) != 2:
        raise RuntimeError("face walk: start vertex degree != 2")
    walk = [start, nbrs[0]]
    while len(walk) < len(verts):
        cur, prev = walk[-1], walk[-2]
        (nxt,) = [w for w in verts if w not in (cur, prev) and adjacent(cur, w)] or [None]
        if nxt is None:
            raise RuntimeError("face walk: dead end")
        walk.append(nxt)
    if not adjacent(walk[-1], walk[0]):
        raise RuntimeError("face walk: not closed")
    return tuple(walk)


def enumerate_two_faces(n: int) -> list[TwoFace]:
    """All 2-faces of the permutohedron: hexagons (one size-3 gap) and squares
    (two size-2 gaps).  Deterministic order, keyed by the face's flag chain.
    """
    _check_n(n)
    if n < 3:
        return []
    faces = []

    # hexagons: block sizes are a permutation of (3, 1, ..., 1)
    nblocks = n - 2
    for pos3 in range(nblocks):
        sizes = [1] * nblocks
        sizes[pos3] = 3
        for blocks in _ordered_partitions(n, tuple(sizes)):
            triple = blocks[pos3]
            below = mask_from(e for b in blocks[:pos3] for e in b)
            flag_data = (below, below | mask_from(triple))
            refinements = []
            for order in permutations(triple):
                expanded = blocks[:pos3] + tuple((x,) for x in order) + blocks[pos3 + 1 :]
                refinements.append(_chain_of(expanded + ((),))[: n - 1])
            full = [_full_from_chain(ch, n) for ch in refinements]
            faces.append(TwoFace("hexagon", _face_vertices_cyclic(full), flag_data))

    # squares: block sizes are a permutation of (2, 2, 1, ..., 1)
    if n >= 4:
        for posa in range(nblocks):
            for posb in range(posa + 1, nblocks):
                sizes = [1] * nblocks
                sizes[posa] = sizes[posb] = 2
                for blocks in _ordered_partitions(n, tuple(sizes)):
                    gaps = []
                    for pos in (posa, posb):
                        below = mask_from(e for b in blocks[:pos] for e in b)
                        gaps.append((below, below | mask_from(blocks[pos])))
                    refinements = []
                    for ord_a in permutations(blocks[posa]):
                        for ord_b in permutations(blocks[posb]):
                            expanded = list(blocks)
                            expanded[posa : posa + 1] = [(x,) for x in ord_a]
                            # posb shifted by the expansion of posa
                            pb = posb + 1
                            expanded[pb : pb + 1] = [(x,) for x in ord_b]
                            refinements.append(_chain_of(tuple(expanded) + ((),))[: n - 1])
                    full = [_full_from_chain(ch, n) for ch in refinements]
                    faces.append(TwoFace("square", _face_vertices_cyclic(full), tuple(gaps)))

    faces.sort(key=lambda f: (f.kind != "hexagon", f.flag_data))
    return faces


def _full_from_chain(chain, n):
    if len(chain) != n - 1:
        raise RuntimeError("refinement did not produce a complete chain")
    return tuple(chain) + (mask_from(range(1, n + 1)),)


# ---------------------------------------------------------------------------
# skeleton graphs


class EdgeValues:
    """Antisymmetric rational values on directed edges: value(v,u) = -value(u,v)."""

    def __init__(self):
        self._data = {}

    def set(self, u, v, value):
        if (u, v) in self._data and self._data[(u, v)] != value:
            raise ValueError(f"conflicting value on edge {u} -> {v}")
        self._data[(u, v)] = value
        self._data[(v, u)] = -value

    def get(self, u, v):
        return self._data[(u, v)]

    def has(self, u, v):
        return (u, v) in self._data

    def __len__(self):
        return len(self._data) // 2


@dataclass
class SkeletonGraph:
    """Vertex-edge graph of a polytope together with its 2-face cycles.

    ``edge_tags`` (permutohedron only) maps a directed edge (u, v) to
    (level, A, B): the level-d constituents in which the two endpoint flags
    differ.
    """

    name: str
    vertices: tuple
    edges: tuple
    two_face_cycles: tuple
    edge_tags: dict = field(default_factory=dict)
    neighbors: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.neighbors:
            nb = {v: [] for v in self.vertices}
            for u, v in self.edges:
                nb[u].append(v)
                nb[v].append(u)
            self.neighbors = {v: tuple(sorted(ws)) for v, ws in nb.items()}


def permutohedron_graph(n: int) -> SkeletonGraph:
    """Edge graph of the permutohedron; edges swap two consecutive values."""
    _check_n(n)
    verts = permutohedron_vertices(n)
    edges = set()
    tags = {}
    for v in verts:
        flag_v = vertex_to_flag(v)
        pos = {val: p for p, val in enumerate(v)}
        for c in range(1, n):
            w = list(v)
            w[pos[c]], w[pos[c + 1]] = w[pos[c + 1]], w[pos[c]]
            w = tuple(w)
            edges.add((min(v, w), max(v, w)))
            d = n - c
            tags[(v, w)] = (d, flag_v[d - 1], vertex_to_flag(w)[d - 1])
    cycles = tuple(f.vertices for f in enumerate_two_faces(n))
    return SkeletonGraph(
        name=f"permutohedron-{n}",
        vertices=tuple(verts),
        edges=tuple(sorted(edges)),
        two_face_cycles=cycles,
        edge_tags=tags,
    )


def hypersimplex_graph(d: int, n: int) -> SkeletonGraph:
    """Edge graph of the d-th hypersimplex on {1..n}; 2-faces are triangles."""
    _check_n(n)
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    verts = sorted(subsets_of_size(n, d))
    vset = set(verts)
    edges = sorted(
        (a, b) for a, b in combinations(verts, 2) if mask_size(a ^ b) == 2
    )
    cycles = []
    for s in subsets_of_size(n, d - 1):
        outside = [e for e in range(1, n + 1) if not s & (1 << (e - 1))]
        for i, j, k in combinations(outside, 3):
            cycles.append(tuple(s | mask_from([x]) for x in (i, j, k)))
    if d >= 2:
        for s in subsets_of_size(n, d - 2):
            outside = [e for e in range(1, n + 1) if not s & (1 << (e - 1))]
            for i, j, k in combinations(outside, 3):
                tri = (
                    s | mask_from([i, j]),
                    s | mask_from([i, k]),
                    s | mask_from([j, k]),
                )
                cycles.append(tri)
    cycles = [c for c in cycles if all(v in vset for v in c)]
    return SkeletonGraph(
        name=f"hypersimplex-{d}-{n}",
        vertices=tuple(verts),
        edges=tuple(edges),
        two_face_cycles=tuple(cycles),
    )


# ---------------------------------------------------------------------------
# symmetries


def _coordinate_transposition_map(n, i):
    """Vertex map of the coordinate swap x_i <-> x_{i+1}."""
    return {v: apply_right(v, i) for v in permutohedron_vertices(n)}


def reverse_complement(v) -> tuple[int, ...]:
    """Reverse the positions and complement the values of a vertex.

    This is the unique nontrivial symmetry fixing (1, 2, ..., n); it is
    affinely induced (x -> (n+1)*1 - Px with P the coordinate reversal).
    For n <= 4 it coincides with the orthogonal reflection with normal
    e_1 - e_2 - e_{n-1} + e_n on the vertex set.
    """
    n = len(v)
    return tuple(n + 1 - v[n - 1 - i] for i in range(n))


def _extra_reflection_map(n):
    return {v: reverse_complement(v) for v in permutohedron_vertices(n)}


def symmetry_generators(n: int) -> list[dict]:
    """Vertex maps generating the symmetries: the right coordinate action of
    the symmetric group plus one extra reflection."""
    _check_n(n)
    if n < 3:
        raise ValueError("symmetry generators need n >= 3")
    gens = [_coordinate_transposition_map(n, i) for i in range(1, n)]
    gens.append(_extra_reflection_map(n))
    return gens


def symmetry_group_order(n: int) -> int:
    """Order of the group generated by symmetry_generators (BFS closure)."""
    gens = symmetry_generators(n)
    verts = permutohedron_vertices(n)
    ident = tuple(verts)

    def as_tuple(m):
        return tuple(m[v] for v in verts)

    def compose(t, m):
        # apply map m after the permutation encoded by t
        return tuple(m[v] for v in t)

    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = compose(t, g)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen)
