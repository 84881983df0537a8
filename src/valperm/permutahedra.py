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
* An edge exchanges two consecutive *values*; a 2-face is the orbit of a
  vertex under two such value swaps (a hexagon when the values overlap, a
  square otherwise), walked by alternating the swaps.  The 2-faces and the
  edge graph do not change for a given n, so :func:`enumerate_two_faces`,
  :func:`permutohedron_graph` and :func:`vertex_lengths` build them once per
  n, and :func:`hypersimplex_graph` once per (d, n), and return the same
  immutable object on every later call.

Everything is capped at n <= 7; the library is meant for exact desk-scale
computations, not asymptotics.
"""

from bisect import insort
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, permutations
from types import MappingProxyType

N_MAX = 7


def _check_n(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must be between 1 and {N_MAX}, got {n}")


# ---------------------------------------------------------------------------
# subset masks


def as_int(x) -> int:
    """``int(x)``, except that a number with a fractional part raises
    TypeError instead of being truncated: 3.0 gives 3 and 1.5 raises.
    Strings are parsed as ``int`` parses them.

    >>> as_int(3.0)
    3
    """
    if type(x) is int:
        return x
    value = int(x)
    if not isinstance(x, str) and value != x:
        raise TypeError(f"{x!r} is not an integer")
    return value


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
        elems = [as_int(e) for e in text]
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
        v = tuple(as_int(x) for x in text)
    else:
        digits = str(text)
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"not a permutation: {text!r}")
        v = tuple(int(c) for c in digits)
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


@cache
def vertex_flags(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each vertex of the permutohedron, in sorted order, with its
    :func:`vertex_to_flag`; built once per n.

    >>> vertex_flags(2)
    (((1, 2), (2, 3)), ((2, 1), (1, 3)))
    """
    return tuple((v, vertex_to_flag(v)) for v in permutohedron_vertices(n))


# ---------------------------------------------------------------------------
# words and Bruhat order


def apply_right(v, i: int) -> tuple[int, ...]:
    """Right multiplication by the adjacent transposition of positions i, i+1."""
    w = list(v)
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


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
    """Strong Bruhat order via the tableau criterion.

    a <= b iff for every i < n the first i entries of a, sorted increasingly,
    are entrywise at most the first i entries of b, sorted (Björner and
    Brenti, *Combinatorics of Coxeter Groups*, Thm 2.6.3).  The identity is
    the minimum and (n, ..., 2, 1) the maximum.
    """
    n = len(a)
    if n != len(b):
        raise ValueError("length mismatch")
    sa, sb = [], []
    for i in range(n - 1):
        insort(sa, a[i])
        insort(sb, b[i])
        for x, y in zip(sa, sb):
            if x > y:
                return False
    return True


@cache
def vertex_lengths(n: int) -> MappingProxyType:
    """Each vertex of the permutohedron, in sorted order, mapped to its
    length (its number of inversions); built once per n.

    >>> dict(vertex_lengths(2))
    {(1, 2): 0, (2, 1): 1}
    """
    return MappingProxyType({v: inversions(v) for v in permutohedron_vertices(n)})


def bruhat_interval(lo, hi, n: int) -> list[tuple[int, ...]]:
    """The vertices v with lo <= v <= hi in the strong Bruhat order, sorted.

    The order is graded by length (Björner and Brenti, ch. 2): u < v
    implies l(u) < l(v).  So every element of [lo, hi] other than lo and
    hi has a length strictly between l(lo) and l(hi), and only the vertices
    of that window, with lo and hi themselves, go to :func:`bruhat_leq`,
    which stays the only order test.  In particular lo <= hi fails unless
    lo == hi or l(lo) < l(hi), and then the test of lo and hi finds it.
    """
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != n or len(hi) != n:
        raise ValueError("length mismatch")
    lengths = vertex_lengths(n)
    a, b = inversions(lo), inversions(hi)
    return [
        v for v, k in lengths.items()
        if (a < k < b or v == lo or v == hi) and bruhat_leq(lo, v) and bruhat_leq(v, hi)
    ]


# ---------------------------------------------------------------------------
# two-dimensional faces


def _swap_values(v, c) -> tuple[int, ...]:
    """The neighbour of v across the edge that exchanges the values c, c + 1."""
    return tuple(c + 1 if x == c else c if x == c + 1 else x for x in v)


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


@cache
def enumerate_two_faces(n: int) -> tuple[TwoFace, ...]:
    """All 2-faces of the permutohedron, built once per n.

    A 2-face is the orbit of a vertex under two value swaps c <-> c+1 and
    d <-> d+1 with c < d: a hexagon when d = c + 1, a square otherwise.
    Alternating the two swaps walks its boundary in cyclic order.  Each face
    is taken from its smallest vertex, the one where every swapped value
    group increases along the positions, which is exactly the vertex smaller
    than both of its neighbours in the face.

    Hexagons come first, then squares, each sorted by ``flag_data`` and then
    by the ordered set partition of the positions (blocks from the largest
    values down, each swapped value group one block).  Given the
    ``flag_data`` the group blocks are fixed, so the partitions compare as
    the positions of n, n-1, ..., 1 at the smallest vertex.
    """
    _check_n(n)
    keyed = []
    for v in permutohedron_vertices(n):
        pos = sorted(range(n), key=lambda p: -v[p])  # positions of n, ..., 1
        above = [0] * (n + 2)  # above[x]: mask of the positions of values >= x
        for x in range(n, 0, -1):
            above[x] = above[x + 1] | 1 << pos[n - x]
        for c, d in combinations(range(1, n), 2):
            a, b = _swap_values(v, c), _swap_values(v, d)
            if a < v or b < v:
                continue
            swaps = (c, d) if a < b else (d, c)
            walk = [v]
            u = _swap_values(v, swaps[0])
            while u != v:
                walk.append(u)
                u = _swap_values(u, swaps[(len(walk) + 1) % 2])
            if d == c + 1:
                face = TwoFace("hexagon", tuple(walk), (above[c + 3], above[c]))
            else:
                gaps = ((above[d + 2], above[d]), (above[c + 2], above[c]))
                face = TwoFace("square", tuple(walk), gaps)
            keyed.append(((face.kind != "hexagon", face.flag_data, pos), face))
    keyed.sort(key=lambda item: item[0])
    return tuple(face for _, face in keyed)


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


@dataclass(frozen=True)
class SkeletonGraph:
    """Vertex-edge graph of a polytope together with its 2-face cycles.

    ``edge_tags`` (permutohedron only) maps a directed edge (u, v) to
    (level, A, B): the level-d constituents in which the two endpoint flags
    differ.  Both mappings are read-only, because each graph is shared by
    every caller of :func:`permutohedron_graph` or :func:`hypersimplex_graph`.
    """

    name: str
    vertices: tuple
    edges: tuple
    two_face_cycles: tuple
    edge_tags: dict = field(default_factory=dict)
    neighbors: dict = field(default_factory=dict)

    def __post_init__(self):
        neighbors = self.neighbors
        if not neighbors:
            nb = {v: [] for v in self.vertices}
            for u, v in self.edges:
                nb[u].append(v)
                nb[v].append(u)
            neighbors = {v: tuple(sorted(ws)) for v, ws in nb.items()}
        object.__setattr__(self, "neighbors", MappingProxyType(neighbors))
        object.__setattr__(self, "edge_tags", MappingProxyType(self.edge_tags))


@cache
def permutohedron_graph(n: int) -> SkeletonGraph:
    """Edge graph of the permutohedron, built once per n; edges swap two
    consecutive values."""
    _check_n(n)
    verts = permutohedron_vertices(n)
    edges = set()
    tags = {}
    for v in verts:
        flag_v = vertex_to_flag(v)
        for c in range(1, n):
            w = _swap_values(v, c)
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


@cache
def hypersimplex_graph(d: int, n: int) -> SkeletonGraph:
    """Edge graph of the d-th hypersimplex on {1..n}, built once per (d, n);
    2-faces are triangles."""
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
