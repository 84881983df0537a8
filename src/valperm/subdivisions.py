"""Height functions on the permutohedron and their regular subdivisions.

A height function assigns a rational to every vertex of the permutohedron.
Full flags of valuated matroids compress to height functions; conversely, a
height function whose restriction to every 2-face is balanced decomposes into
one potential per hypersimplex level.  This module provides the compression,
the subdivision with per-cell certificates (edge directions, Bruhat
intervals), the 2-face condition report, the decomposition, and the embedding
of a full flag into a single valuated matroid on twice the ground set.

Heights and flag values are Fractions in public, and every computation here
reads their integer views instead (numerators over one positive common
denominator, taken once per object).  Subdivisions and the 2-face conditions
do not change when all heights are scaled by the same positive number, and
every value that comes back out is divided back into true units.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from types import MappingProxyType

from valperm.permutahedra import (
    N_MAX,
    bruhat_interval,
    enumerate_two_faces,
    mask_elems,
    mask_size,
    parse_perm,
    perm_str,
    permutohedron_vertices,
    subset_str,
    subsets_of_size,
    vertex_flags,
    vertex_lengths,
    vertex_to_flag,
)
from valperm.polyhedra import hull_edges, lower_cells
from valperm.valuated import ValuatedMatroid, check_incidence, common_view, exact, integer_view


class ValuatedFlagMatroid:
    """A full flag of valuated matroids: one component of each rank 1..n.

    Consecutive components must pass :func:`valperm.valuated.check_incidence`;
    pass ``check=False`` to skip that validation (used when the caller will
    establish or test the property itself).  The components' integer views
    are brought to one denominator once, here (``_ints[d - 1]`` over
    ``_den`` for rank d), so a flag is immutable like its components.
    """

    __slots__ = ("n", "components", "_ints", "_den")

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
        ints, den = common_view(comps)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"ValuatedFlagMatroid is immutable: cannot set {name}")

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


@cache
def _vertex_keys(n):
    """Each vertex of the permutohedron mapped to itself, so that a key equal
    to a vertex is read as that vertex without parsing; built once per n."""
    return MappingProxyType({v: v for v in permutohedron_vertices(n)})


def _as_vertex(key):
    """``parse_perm(key)``, with a key equal to a vertex tuple looked up in
    the vertex map of its length instead; any other key is parsed, with
    the same errors."""
    if isinstance(key, tuple) and len(key) in range(1, N_MAX + 1):
        return _vertex_keys(len(key)).get(key) or parse_perm(key)
    return parse_perm(key)


class HeightFunction:
    """A rational height for every vertex of the permutohedron.

    Keys may be permutation tuples or compact strings ("213"); they must
    cover all n! vertices exactly, each once.  A key equal to a vertex tuple
    is looked up, and any other key is parsed.  Heights are Fractions; floats
    raise TypeError.

    A height function is immutable: ``heights`` is a read-only mapping and
    no attribute can be reassigned.  That lets it hold what is derived from
    it: its integer view (``_ints`` over ``_den``), taken here, and the
    cells that :func:`subdivide` and the report that
    :func:`check_two_skeleton` store on it, so each is computed at most
    once and lives exactly as long as the height function does.
    """

    __slots__ = ("n", "heights", "_ints", "_den", "_cells", "_report")

    def __init__(self, n, heights):
        hs = {}
        for key, value in heights.items():
            v = _as_vertex(key)
            if len(v) != n:
                raise ValueError(f"vertex {perm_str(v)} does not match n={n}")
            if v in hs:
                raise ValueError(f"vertex {perm_str(v)} is given twice (key {key!r})")
            hs[v] = exact(value)
        missing = [v for v in permutohedron_vertices(n) if v not in hs]
        if missing:
            raise ValueError(f"missing height at vertex {perm_str(missing[0])}")
        ints, den = integer_view(hs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "heights", MappingProxyType(hs))
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_cells", None)
        object.__setattr__(self, "_report", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"HeightFunction is immutable: cannot set {name}")

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
    """The minimal total value, in units of ``1 / flag._den``, over
    x = sum over d of the indicator of a rank-d support subset; None when no
    decomposition stays inside the supports."""
    cache = {}

    def rec(level, residual):
        if level == 0:
            return None if any(residual) else 0
        state = (level, residual)
        if state in cache:
            return cache[state]
        best = None
        for mask, val in flag._ints[level - 1].items():
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
            sub = rec(level - 1, tuple(nxt))
            if sub is not None and (best is None or val + sub < best):
                best = val + sub
        cache[state] = best
        return best

    return rec(flag.n, tuple(int(c) for c in x))


def compress(flag, x):
    """Minimal total component value over all decompositions of the lattice
    point x into one subset indicator per rank; None if every decomposition
    leaves some support."""
    if not is_lattice_point(flag.n, x):
        raise ValueError(f"{tuple(x)} is not a lattice point of the permutohedron")
    best = _decompositions_minimum(flag, x)
    return None if best is None else Fraction(best, flag._den)


def compress_on_vertices(flag):
    """The height function v -> sum of component values over the flag of
    super-level sets of v.

    At a vertex that flag is the unique decomposition of v into one subset
    indicator per rank (forced level by level: the sets of each size must be
    exactly the positions with remaining demand), so this agrees with
    :func:`compress`.
    """
    heights = {}
    for v, vflag in vertex_flags(flag.n):
        total = 0
        for d, mask in enumerate(vflag, start=1):
            val = flag._ints[d - 1].get(mask)
            if val is None:
                raise ValueError(
                    f"height is not finite at vertex {perm_str(v)}: "
                    f"{subset_str(mask)} is outside the rank-{d} support"
                )
            total += val
        heights[v] = Fraction(total, flag._den)
    return HeightFunction(flag.n, heights)


# ---------------------------------------------------------------------------
# cells of the regular subdivision


def is_generalized_permutahedron(vertices, facets=None):
    """Whether every edge of conv(vertices) is parallel to a difference of
    two coordinate directions.

    ``facets``, when given, holds each vertex's facet mask in a polyhedron
    that has conv(vertices) as a face, as :func:`valperm.polyhedra.hull_edges`
    takes it; without it the hull of the vertices is solved here."""
    pts = [tuple(v) for v in vertices]
    if not pts:
        raise ValueError("empty vertex set")
    _, edges = hull_edges(pts, list(range(len(pts))), facets)
    for a, b in edges:
        diff = [x - y for x, y in zip(pts[a], pts[b]) if x != y]
        if len(diff) != 2 or diff[0] + diff[1] != 0:
            return False
    return True


def is_bruhat_interval_polytope(vertices):
    """(verdict, endpoints): whether the permutation set is a full interval
    of the strong order, with its (minimum, maximum) when it is."""
    perms = sorted({_as_vertex(v) for v in vertices})
    if not perms:
        raise ValueError("empty vertex set")
    n = len(perms[0])
    if any(len(v) != n for v in perms):
        raise ValueError("length mismatch")
    # The Bruhat order is graded by length: every other element of an
    # interval [lo, hi] is strictly longer than lo and strictly shorter than
    # hi, so only a unique shortest and a unique longest element can be ends.
    length = vertex_lengths(n)
    lengths = [length[v] for v in perms]
    least, most = min(lengths), max(lengths)
    shortest = [v for v, k in zip(perms, lengths) if k == least]
    longest = [v for v, k in zip(perms, lengths) if k == most]
    if len(shortest) != 1 or len(longest) != 1:
        return False, None
    lo, hi = shortest[0], longest[0]
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
    each certified by edge directions and by the Bruhat-interval test.

    The cells are computed once per height function and stored on it;
    every call returns a fresh list of the same frozen cells.  The hull is
    lifted by the integer view of the heights, which has the same lower
    faces, and solved once: each cell's edges are read from its vertices'
    masks of lifted facets."""
    if w._cells is None:
        verts = permutohedron_vertices(w.n)
        cells, tight = lower_cells(verts, [w._ints[v] for v in verts], verts)
        mask = dict(zip(verts, tight))
        out = []
        for cell in cells:
            gp = is_generalized_permutahedron(cell, [mask[v] for v in cell])
            interval, endpoints = is_bruhat_interval_polytope(cell)
            lo, hi = endpoints if endpoints else (None, None)
            out.append(Cell(cell, gp, interval, lo, hi))
        object.__setattr__(w, "_cells", tuple(out))
    return list(w._cells)


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
    """Evaluate the 2-face conditions of the height function w.

    The report is computed once per height function and stored on it;
    later calls return the same frozen report.  It compares sums of the
    integer view, which order and tie exactly as the heights' sums do."""
    if w._report is not None:
        return w._report
    h = w._ints
    length = vertex_lengths(w.n)
    hexagons, squares = [], []
    for face in enumerate_two_faces(w.n):
        vs = face.vertices
        if face.kind == "square":
            squares.append(
                SquareCheck(face, h[vs[0]] + h[vs[2]] == h[vs[1]] + h[vs[3]])
            )
            continue
        alternating = sum(h[v] for v in vs[0::2]) == sum(h[v] for v in vs[1::2])
        diagonals = face.diagonals()
        sums = [h[a] + h[b] for a, b in diagonals]
        top = max(sums)
        attaining = tuple(pair for pair, s in zip(diagonals, sums) if s == top)
        # a hexagon is a coset of a rank-2 parabolic subgroup, so its unique
        # Bruhat-minimal vertex is its shortest element
        b = min(vs, key=length.__getitem__)
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
    object.__setattr__(w, "_report", SkeletonReport(tuple(hexagons), tuple(squares)))
    return w._report


# ---------------------------------------------------------------------------
# potentials and height decomposition


@lru_cache(maxsize=8)
def _exchange_tree(n):
    """One spanning tree of the d-sets of [n] for each level d < n, as its
    edges ``(A, B, v, u)`` in breadth-first order from the identity's
    level-d set, each A's exchange neighbours B = A - a + b in increasing
    mask order.  v -> u is the permutohedron edge that swaps the values
    n - d + 1 and n - d: v holds A at level d and u holds B, and their
    flags agree at every other level (A & B at level d - 1, A | B at
    level d + 1), so w(v) - w(u) is the difference of the level-d values
    at A and B."""
    identity = vertex_to_flag(tuple(range(1, n + 1)))
    tree = []
    for d in range(1, n):
        root = identity[d - 1]
        queue, seen, edges = [root], {root}, []
        for a_set in queue:
            ins = [p for p in range(n) if a_set >> p & 1]
            outs = [p for p in range(n) if not a_set >> p & 1]
            for b_set, a, b in sorted((a_set ^ 1 << a ^ 1 << b, a, b) for a in ins for b in outs):
                if b_set in seen:
                    continue
                seen.add(b_set)
                queue.append(b_set)
                shared = [p for p in ins if p != a]
                rest = [p for p in outs if p != b]
                # the positions of the values n, n - 1, ..., 1 at v and at u
                at_v, at_u = shared + [a, b] + rest, shared + [b, a] + rest
                v, u = (tuple(n - at.index(p) for p in range(n)) for at in (at_v, at_u))
                edges.append((a_set, b_set, v, u))
        tree.append(tuple(edges))
    return tuple(tree)


def decompose_height(w):
    """Split a height function into one potential per hypersimplex level.

    Requires the alternating and square conditions (the transfer of the
    vertex-difference function to the hypersimplices is exactly their
    content); the first failing face is reported.  Anchors: the level-d value
    at the super-level set of the identity permutation is 0 for d < n, and
    the full-set value is w(identity), so the values along the identity's
    flag sum to w(identity).

    Each level's values are read off the heights along the edges of
    :func:`_exchange_tree`, on the integer view: p_d(B) = p_d(A) - w(v) +
    w(u).  The potentials are certified by the round trip: at every vertex
    they must sum, along its flag, to its height, or ``RuntimeError`` is
    raised.

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
    h, den = w._ints, w._den
    identity = tuple(range(1, n + 1))
    top = vertex_to_flag(identity)
    levels = [{m: 0} for m in top[:-1]] + [{top[-1]: h[identity]}]
    for level, edges in zip(levels, _exchange_tree(n)):
        for a, b, v, u in edges:
            level[b] = level[a] - h[v] + h[u]
    for v, vflag in vertex_flags(n):
        if sum(level[m] for level, m in zip(levels, vflag)) != h[v]:
            raise RuntimeError(
                f"decompose_height: the potentials do not sum to the height at {perm_str(v)}"
            )
    components = [
        ValuatedMatroid(n, d, {m: Fraction(t, den) for m, t in level.items()})
        for d, level in enumerate(levels, start=1)
    ]
    return ValuatedFlagMatroid(components, check=False)


# ---------------------------------------------------------------------------
# the lift to a single valuated matroid on 2n elements


@lru_cache(maxsize=8)
def _gap_table(n):
    """The supermodularity gaps of a flag on [n], in scan order: for every
    m-subset T with m <= n - 2 and i < j outside it, the masks
    (Ti, Tj, Tij, T) of the gap w(Ti) + w(Tj) - w(Tij) - w(T)."""
    gaps = []
    for m in range(n - 1):
        for t in subsets_of_size(n, m):
            outside = [1 << (e - 1) for e in range(1, n + 1) if not t >> (e - 1) & 1]
            for bi, bj in combinations(outside, 2):
                gaps.append((t | bi, t | bj, t | bi | bj, t))
    return tuple(gaps)


def lift_to_grassmannian(flag):
    """Embed a full flag on {1..n} into one valuated matroid of rank n on
    {1..2n}: an n-subset B gets the value of B's intersection with {1..n} in
    the component of matching rank, plus a convex correction a*d^2.

    The correction makes the three-term relations hold: a = max(0, ceil(V/2))
    where V is the largest violation of supermodularity-in-rank across
    consecutive components (the empty set reads as value 0).  Requires
    uniform supports.  The gaps and the lifted values are computed on the
    flag's integer view, in units of ``1 / flag._den``.
    """
    n = flag.n
    for c in flag:
        if not c.is_uniform:
            raise ValueError("the lift needs uniform supports in every rank")
    den = flag._den
    # every subset of [n] has a value in exactly one rank, the empty set 0
    w = {0: 0}
    for ints in flag._ints:
        w.update(ints)
    worst = max((w[a] + w[b] - w[ab] - w[t] for a, b, ab, t in _gap_table(n)), default=None)
    # alpha = ceil(V / 2) in true units, V = worst / den
    alpha = max(0, -(-worst // (2 * den))) if worst is not None else 0
    low = (1 << n) - 1
    values = {}
    for b in subsets_of_size(2 * n, n):
        t = b & low
        d = mask_size(t)
        values[b] = Fraction(w[t] + alpha * d * d * den, den)
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
    must agree; a mismatch is an internal failure and raises.

    Both routes are read through :func:`check_two_skeleton` and
    :func:`subdivide`, so a height function whose report and cells are
    already computed is not subdivided again; the two verdicts are still
    compared on every call."""
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
