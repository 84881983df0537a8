"""Height functions on the permutohedron and their regular subdivisions.

A height function assigns a rational to every vertex of the permutohedron.
Full flags of valuated matroids compress to height functions; conversely, a
height function whose restriction to every 2-face is balanced decomposes into
one potential per hypersimplex level.  This module provides the compression,
the subdivision with per-cell certificates (edge directions, Bruhat
intervals), the 2-face condition report, the decomposition, and the embedding
of a full flag into a single valuated matroid on twice the ground set.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil

from valperm.permutahedra import (
    EdgeValues,
    bruhat_interval,
    bruhat_leq,
    enumerate_two_faces,
    hypersimplex_graph,
    mask_elems,
    mask_from,
    mask_size,
    parse_perm,
    perm_str,
    permutohedron_graph,
    permutohedron_vertices,
    subset_str,
    subsets_of_size,
    vertex_to_flag,
)
from valperm.polyhedra import hull_edges, lower_cells
from valperm.valuated import ValuatedMatroid, check_incidence


class ValuatedFlagMatroid:
    """A full flag of valuated matroids: one component of each rank 1..n.

    Consecutive components must pass :func:`valperm.valuated.check_incidence`;
    pass ``check=False`` to skip that validation (used when the caller will
    establish or test the property itself).
    """

    __slots__ = ("n", "components")

    def __init__(self, components, check=True):
        comps = tuple(components)
        if not comps:
            raise ValueError("a flag needs at least one component")
        n = comps[0].n
        if any(c.n != n for c in comps):
            raise ValueError("components live on different ground sets")
        if len(comps) != n:
            raise ValueError(f"need {n} components for ground set size {n}, got {len(comps)}")
        for d, c in enumerate(comps, start=1):
            if c.d != d:
                raise ValueError(f"component {d} has rank {c.d}")
        if check:
            for lo, hi in zip(comps, comps[1:]):
                violation = check_incidence(lo, hi)
                if violation is not None:
                    raise ValueError(f"ranks ({lo.d},{hi.d}) are not incident: {violation}")
        self.n = n
        self.components = comps

    def component(self, d):
        """The rank-d component."""
        return self.components[d - 1]

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        return (
            isinstance(other, ValuatedFlagMatroid)
            and self.components == other.components
        )

    def __repr__(self):
        return f"ValuatedFlagMatroid({list(self.components)!r})"


class HeightFunction:
    """A rational height for every vertex of the permutohedron.

    Keys may be permutation tuples or compact strings ("213"); they must
    cover all n! vertices exactly.
    """

    __slots__ = ("n", "heights")

    def __init__(self, n, heights):
        hs = {}
        for key, value in heights.items():
            v = parse_perm(key)
            if len(v) != n:
                raise ValueError(f"vertex {perm_str(v)} does not match n={n}")
            hs[v] = Fraction(value)
        missing = [v for v in permutohedron_vertices(n) if v not in hs]
        if missing:
            raise ValueError(f"missing height at vertex {perm_str(missing[0])}")
        self.n = n
        self.heights = hs

    @classmethod
    def zero(cls, n):
        return cls(n, {v: 0 for v in permutohedron_vertices(n)})

    def __getitem__(self, vertex):
        return self.heights[tuple(vertex)]

    def __eq__(self, other):
        return (
            isinstance(other, HeightFunction)
            and (self.n, self.heights) == (other.n, other.heights)
        )

    def __repr__(self):
        vals = ", ".join(f"{perm_str(v)}:{h}" for v, h in sorted(self.heights.items()))
        return f"HeightFunction(n={self.n}, {{{vals}}})"


# ---------------------------------------------------------------------------
# compression


def is_lattice_point(n, x):
    """Whether x is an integer point of the permutohedron.

    The criterion: entries are integers summing to 1 + ... + n and the k
    largest entries sum to at most n + (n-1) + ... + (n-k+1) for every k.
    """
    if len(x) != n or any(int(c) != c for c in x):
        return False
    xs = sorted((int(c) for c in x), reverse=True)
    if sum(xs) != n * (n + 1) // 2:
        return False
    bound = 0
    run = 0
    for k in range(1, n):
        bound += n - k + 1
        run += xs[k - 1]
        if run > bound:
            return False
    return True


def _decompositions_minimum(flag, x):
    """(minimal total value, number of attaining decompositions) for
    x = sum over d of the indicator of a rank-d support subset; (None, 0)
    when no decomposition stays inside the supports."""
    values = {c.d: c.values for c in flag}
    cache = {}

    def rec(level, residual):
        if level == 0:
            return (Fraction(0), 1) if not any(residual) else (None, 0)
        state = (level, residual)
        if state in cache:
            return cache[state]
        best, count = None, 0
        for mask, val in values[level].items():
            nxt = list(residual)
            feasible = True
            for p in mask_elems(mask):
                nxt[p - 1] -= 1
                if nxt[p - 1] < 0:
                    feasible = False
                    break
            # each coordinate can be hit at most once per remaining level
            if not feasible or any(c > level - 1 for c in nxt):
                continue
            sub, subcount = rec(level - 1, tuple(nxt))
            if sub is None:
                continue
            total = val + sub
            if best is None or total < best:
                best, count = total, subcount
            elif total == best:
                count += subcount
        cache[state] = (best, count)
        return best, count

    return rec(flag.n, tuple(int(c) for c in x))


def compress(flag, x):
    """Minimal total component value over all decompositions of the lattice
    point x into one subset indicator per rank; None if every decomposition
    leaves some support."""
    if not is_lattice_point(flag.n, x):
        raise ValueError(f"{tuple(x)} is not a lattice point of the permutohedron")
    best, _ = _decompositions_minimum(flag, x)
    return best


def compress_attainers(flag, x):
    """(minimum, multiplicity): how many decompositions attain :func:`compress`."""
    if not is_lattice_point(flag.n, x):
        raise ValueError(f"{tuple(x)} is not a lattice point of the permutohedron")
    return _decompositions_minimum(flag, x)


def compress_on_vertices(flag):
    """The height function v -> sum of component values over the flag of
    super-level sets of v.

    At a vertex that flag is the unique decomposition of v into one subset
    indicator per rank (forced level by level: the sets of each size must be
    exactly the positions with remaining demand), so this agrees with
    :func:`compress`.
    """
    heights = {}
    for v in permutohedron_vertices(flag.n):
        total = Fraction(0)
        for d, mask in enumerate(vertex_to_flag(v), start=1):
            val = flag.component(d).value(mask)
            if val is None:
                raise ValueError(
                    f"height is not finite at vertex {perm_str(v)}: "
                    f"{subset_str(mask)} is outside the rank-{d} support"
                )
            total += val
        heights[v] = total
    return HeightFunction(flag.n, heights)


# ---------------------------------------------------------------------------
# cells of the regular subdivision


def is_generalized_permutahedron(vertices):
    """Whether every edge of conv(vertices) is parallel to a difference of
    two coordinate directions."""
    pts = [tuple(Fraction(c) for c in v) for v in vertices]
    if not pts:
        raise ValueError("empty vertex set")
    _, edges = hull_edges(pts, list(range(len(pts))))
    for a, b in edges:
        diff = [x - y for x, y in zip(pts[a], pts[b]) if x != y]
        if len(diff) != 2 or diff[0] + diff[1] != 0:
            return False
    return True


def is_bruhat_interval_polytope(vertices):
    """(verdict, endpoints): whether the permutation set is a full interval
    of the strong order, with its (minimum, maximum) when it is."""
    perms = sorted({parse_perm(v) for v in vertices})
    if not perms:
        raise ValueError("empty vertex set")
    n = len(perms[0])
    minimal = [v for v in perms if not any(bruhat_leq(u, v) for u in perms if u != v)]
    maximal = [v for v in perms if not any(bruhat_leq(v, u) for u in perms if u != v)]
    if len(minimal) != 1 or len(maximal) != 1:
        return False, None
    lo, hi = minimal[0], maximal[0]
    if set(bruhat_interval(lo, hi, n)) != set(perms):
        return False, None
    return True, (lo, hi)


@dataclass(frozen=True)
class Cell:
    """A cell of a regular subdivision of the permutohedron, with its
    certificates."""

    vertices: tuple
    is_generalized_permutahedron: bool
    is_bruhat_interval: bool
    bruhat_min: tuple = None
    bruhat_max: tuple = None


def subdivide(w):
    """Cells of the regular subdivision of the permutohedron induced by w,
    each certified by edge directions and by the Bruhat-interval test."""
    verts = permutohedron_vertices(w.n)
    cells = lower_cells(verts, [w[v] for v in verts], verts)
    out = []
    for cell in cells:
        gp = is_generalized_permutahedron(cell)
        interval, endpoints = is_bruhat_interval_polytope(cell)
        lo, hi = endpoints if endpoints else (None, None)
        out.append(Cell(cell, gp, interval, lo, hi))
    return out


# ---------------------------------------------------------------------------
# conditions on the 2-skeleton


@dataclass(frozen=True)
class HexagonCheck:
    """Conditions on one hexagonal 2-face, vertices in cyclic order.

    ``alternating_equal``: the two alternating height sums agree.
    ``diagonal_max_twice``: the largest of the three diagonal sums is attained
    by at least two diagonals (``attaining`` lists the attaining pairs).
    ``min_diagonal_attains``: the diagonal through the Bruhat-minimal vertex
    (``min_vertex``) equals the maximum of the other two sums.
    """

    face: object
    alternating_equal: bool
    diagonal_max_twice: bool
    attaining: tuple
    min_diagonal_attains: bool
    min_vertex: tuple


@dataclass(frozen=True)
class SquareCheck:
    """Condition on one square 2-face: opposite height sums agree."""

    face: object
    opposite_equal: bool


@dataclass(frozen=True)
class SkeletonReport:
    """Per-2-face condition checks and their conjunctions."""

    hexagons: tuple
    squares: tuple

    @property
    def passes_alternating(self):
        return all(h.alternating_equal for h in self.hexagons)

    @property
    def passes_diagonal_max(self):
        return all(h.diagonal_max_twice for h in self.hexagons)

    @property
    def passes_min_diagonal(self):
        return all(h.min_diagonal_attains for h in self.hexagons)

    @property
    def passes_squares(self):
        return all(s.opposite_equal for s in self.squares)

    @property
    def passes_two_skeleton(self):
        """Alternating + diagonal-max on hexagons, balance on squares."""
        return self.passes_alternating and self.passes_diagonal_max and self.passes_squares

    @property
    def passes_positive(self):
        """Alternating + square balance + the min-diagonal strengthening."""
        return self.passes_alternating and self.passes_squares and self.passes_min_diagonal


def check_two_skeleton(w):
    """Evaluate the 2-face conditions of the height function w."""
    hexagons, squares = [], []
    for face in enumerate_two_faces(w.n):
        vs = face.vertices
        if face.kind == "square":
            squares.append(
                SquareCheck(face, w[vs[0]] + w[vs[2]] == w[vs[1]] + w[vs[3]])
            )
            continue
        alternating = sum(w[v] for v in vs[0::2]) == sum(w[v] for v in vs[1::2])
        diagonals = face.diagonals()
        sums = [w[a] + w[b] for a, b in diagonals]
        top = max(sums)
        attaining = tuple(pair for pair, s in zip(diagonals, sums) if s == top)
        minimal = [v for v in vs if not any(bruhat_leq(u, v) for u in vs if u != v)]
        assert len(minimal) == 1, "hexagon without a unique Bruhat-minimal vertex"
        b = minimal[0]
        mine = vs.index(b) % 3
        others = [s for k, s in enumerate(sums) if k != mine]
        hexagons.append(
            HexagonCheck(
                face,
                alternating,
                len(attaining) >= 2,
                attaining,
                sums[mine] == max(others),
                b,
            )
        )
    return SkeletonReport(tuple(hexagons), tuple(squares))


# ---------------------------------------------------------------------------
# potentials and height decomposition


def reconstruct_potential(graph, values, root, f0):
    """The vertex map f with f(v) - f(u) = values(v, u) on edges, f(root) = f0.

    Requires the value of every directed cycle bounding a 2-face to vanish;
    a nonzero one is rejected with the offending face.  f is built along a
    breadth-first tree and every non-tree edge is checked afterwards (the
    2-face cycles generate all cycles of a polytope skeleton, so a mismatch
    there is an internal error, not an input error).
    """
    for cycle in graph.two_face_cycles:
        total = sum(
            values.get(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        )
        if total != 0:
            raise ValueError(f"cycle sum {total} on 2-face {cycle} of {graph.name}")
    f = {root: Fraction(f0)}
    queue = [root]
    for u in queue:
        for v in graph.neighbors[u]:
            if v not in f:
                f[v] = f[u] - values.get(u, v)
                queue.append(v)
    if len(f) != len(graph.vertices):
        raise RuntimeError(f"reconstruct_potential: {graph.name} is not connected")
    for u, v in graph.edges:
        if f[u] - f[v] != values.get(u, v):
            raise RuntimeError("reconstruct_potential: a non-tree edge value is inconsistent")
    return f


def decompose_height(w):
    """Split a height function into one potential per hypersimplex level.

    Requires the alternating and square conditions (the transfer of the
    vertex-difference function to the hypersimplices is exactly their
    content); the first failing face is reported.  Anchors: the level-d value
    at the super-level set of the identity permutation is 0 for d < n, and
    the full-set value is w(identity), so the values along the identity's
    flag sum to w(identity).

    The result is returned without the incidence validation: it is a valid
    flag exactly when w also satisfies the diagonal-max condition, which this
    function does not require.
    """
    n = w.n
    report = check_two_skeleton(w)
    for sq in report.squares:
        if not sq.opposite_equal:
            gaps = ", ".join(
                f"{subset_str(a) or '{}'}<{subset_str(b)}" for a, b in sq.face.flag_data
            )
            raise ValueError(f"opposite sums differ on the square with gaps {gaps}")
    for hx in report.hexagons:
        if not hx.alternating_equal:
            lo, hi = hx.face.flag_data
            raise ValueError(
                f"alternating sums differ on the hexagon over "
                f"{subset_str(lo) or '{}'} < {subset_str(hi)}"
            )
    graph = permutohedron_graph(n)
    transfers = {d: EdgeValues() for d in range(1, n)}
    for u, v in graph.edges:
        d, a, b = graph.edge_tags[(u, v)]
        # parallel edges carry the same difference once the square condition
        # holds (same-tag edges are connected through squares), so no
        # conflicting .set can occur here
        transfers[d].set(a, b, w[u] - w[v])
    components = []
    identity_flag = vertex_to_flag(tuple(range(1, n + 1)))
    for d in range(1, n):
        potential = reconstruct_potential(
            hypersimplex_graph(d, n), transfers[d], identity_flag[d - 1], 0
        )
        components.append(ValuatedMatroid(n, d, potential))
    full = mask_from(range(1, n + 1))
    components.append(ValuatedMatroid(n, n, {full: w[tuple(range(1, n + 1))]}))
    return ValuatedFlagMatroid(components, check=False)


# ---------------------------------------------------------------------------
# the lift to a single valuated matroid on 2n elements


def lift_to_grassmannian(flag):
    """Embed a full flag on {1..n} into one valuated matroid of rank n on
    {1..2n}: an n-subset B gets the value of B's intersection with {1..n} in
    the component of matching rank, plus a convex correction a*d^2.

    The correction makes the three-term relations hold: a = max(0, ceil(V/2))
    where V is the largest violation of supermodularity-in-rank across
    consecutive components (the empty set reads as value 0).  Requires
    uniform supports.
    """
    n = flag.n
    for c in flag:
        if not c.is_uniform:
            raise ValueError("the lift needs uniform supports in every rank")
    w = {0: {0: Fraction(0)}}
    for c in flag:
        w[c.d] = c.values
    worst = None
    for m in range(n - 1):
        for t in subsets_of_size(n, m):
            outside = [e for e in range(1, n + 1) if not t >> (e - 1) & 1]
            for i, j in combinations(outside, 2):
                bi, bj = 1 << (i - 1), 1 << (j - 1)
                gap = w[m + 1][t | bi] + w[m + 1][t | bj] - w[m + 2][t | bi | bj] - w[m][t]
                if worst is None or gap > worst:
                    worst = gap
    alpha = max(0, ceil(worst / 2)) if worst is not None else 0
    low = (1 << n) - 1
    values = {}
    for b in subsets_of_size(2 * n, n):
        t = b & low
        d = mask_size(t)
        values[b] = w[d][t] + alpha * d * d
    return ValuatedMatroid(2 * n, n, values)


# ---------------------------------------------------------------------------
# the positivity verdict, certified two ways


@dataclass(frozen=True)
class PositiveFlagResult:
    """Joint verdict of the two positivity routes, with the evidence."""

    positive: bool
    report: SkeletonReport
    cells: tuple


def check_positive_flag(w):
    """Decide whether w subdivides the permutohedron into Bruhat interval
    polytopes, computing both routes: the 2-face conditions (alternating +
    squares + min-diagonal) and the per-cell interval certificates.  The two
    must agree; a mismatch is an internal failure and raises."""
    report = check_two_skeleton(w)
    cells = tuple(subdivide(w))
    by_skeleton = report.passes_positive
    by_cells = all(c.is_bruhat_interval for c in cells)
    if by_skeleton != by_cells:
        raise RuntimeError(
            f"check_positive_flag: the 2-face conditions say {by_skeleton} "
            f"but the cell certificates say {by_cells}"
        )
    return PositiveFlagResult(by_skeleton, report, cells)
