"""Independent brute-force oracles used to pin down expected test values.

Everything in here deliberately avoids the code paths under test: Bruhat
order is decided by subwords of a reduced word, hull membership by LP
separation, lower cells by trying every support set, the fan by solving
every sign choice in full, Gram-Schmidt and projections in ``Fraction``
arithmetic, and extremal rays by trying every row subset.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from lp import lp_feasible
from valperm.permutahedra import (
    inversions,
    permutohedron_vertices,
    reduced_word,
    word_to_perm,
)


def bruhat_lower_set(v):
    """All permutations <= v, via the subword characterization.

    Every subsequence of a reduced word of v that is itself reduced (length
    equals the inversion count of its product) yields an element below v, and
    all of them arise this way.
    """
    word = reduced_word(v)
    n = len(v)
    found = set()
    for r in range(len(word) + 1):
        for positions in combinations(range(len(word)), r):
            sub = tuple(word[p] for p in positions)
            w = word_to_perm(sub, n)
            if inversions(w) == len(sub):
                found.add(w)
    return found


def bruhat_leq_subword(a, b):
    return a in bruhat_lower_set(b)


def argmax_vertex_for_flag(flag, n):
    """The vertex maximizing the flag's weight functional, by brute force."""
    from valperm.permutahedra import mask_elems

    weight = [0] * n
    for m in flag:
        for p in mask_elems(m):
            weight[p - 1] += 1
    best, best_val = None, None
    ties = 0
    for v in permutohedron_vertices(n):
        val = sum(w * x for w, x in zip(weight, v))
        if best_val is None or val > best_val:
            best, best_val, ties = v, val, 1
        elif val == best_val:
            ties += 1
    assert ties == 1, "flag functional should have a unique maximizer"
    return best


def hull_vertices_and_edges_by_lp(points, labels):
    """Vertex and edge lists of conv(points) via strict LP separation.

    A point is a vertex iff it can be strictly separated from the others; a
    pair is an edge iff some affine functional is tight exactly on the pair.
    Assumes pairwise distinct points (0/1 test configurations guarantee it).
    """
    m = len(points[0])
    idx = list(range(len(points)))

    def separable(tight_set):
        # variables (a_1..a_m, b); tight rows: a.p - b = 0; others a.p - b < 0
        eqs = [(list(points[i]) + [-1], 0) for i in tight_set]
        strict = [
            ([-x for x in points[i]] + [1], 0) for i in idx if i not in tight_set
        ]
        feasible, _ = lp_feasible(eqs, strict, [], m + 1)
        return feasible

    vertices = [i for i in idx if separable({i})]
    edges = [
        (i, j)
        for i, j in combinations(vertices, 2)
        if separable({i, j})
    ]
    return sorted(labels[i] for i in vertices), sorted(
        tuple(sorted((labels[i], labels[j]))) for i, j in edges
    )


def lower_cells_by_support_search(points, heights, labels):
    """All lower cells by testing every candidate support via LP.

    A support S is realized iff some affine functional agrees with the heights
    on S and is strictly below them off S; realized supports are exactly the
    faces of the lower hull (the full set when the heights are affine), and
    the cells of the induced subdivision are the maximal ones.
    """
    m = len(points[0])
    idx = list(range(len(points)))
    realized = []
    for r in range(1, len(points) + 1):
        for support in combinations(idx, r):
            sset = set(support)
            eqs = [(list(points[i]) + [1], heights[i]) for i in support]
            # off-support rows demand a.p + c < h(p), i.e. -(a.p + c) > -h(p)
            strict = [([-x for x in points[i]] + [-1], -heights[i]) for i in idx if i not in sset]
            feasible, _ = lp_feasible(eqs, strict, [], m + 1)
            if feasible:
                realized.append(sset)
    cells = [
        s for s in realized if not any(s < other for other in realized)
    ]
    return sorted(tuple(sorted(labels[i] for i in s)) for s in cells)


def exhaustive_fan_cones(n):
    """Every distinct nonempty cone of the height fan's sign-choice systems,
    and the maximal ones among them, by the flat 3^H sweep.

    Each complete choice of attaining diagonal pair per hexagon is solved in
    all n! coordinates together with the base equations: no reduced basis,
    no pruning.  Cones without a ray (the lineality space alone) are
    dropped, the first choice reaching each canonical key is kept, and a
    cone is maximal when no other cone contains all its rays.  Returns
    ``(cones, maximal)``, both sorted by key.
    """
    from valperm.fans import _choice_system, _context
    from valperm.polyhedra import cone_solve

    verts, base_eqs, diag_rows = _context(n)
    by_key = {}
    for choice in product(((0, 1), (0, 2), (1, 2)), repeat=len(diag_rows)):
        cone = cone_solve(*_choice_system(base_eqs, diag_rows, choice), len(verts))
        if cone.rays:
            by_key.setdefault(cone.key, cone)
    cones = [by_key[k] for k in sorted(by_key)]
    maximal = [
        c for c in cones
        if not any(o is not c and all(o.contains(r) for r in c.rays) for o in cones)
    ]
    return cones, maximal


def _primitive(v):
    """A nonzero rational vector scaled to a primitive integer one."""
    mult = 1
    for x in v:
        d = Fraction(x).denominator
        mult = mult * d // gcd(mult, d)
    ints = [int(Fraction(x) * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g > 1 else ints


def orthogonalize_fraction(rows):
    """Gram-Schmidt without normalization in Fraction arithmetic; primitive
    integer output vectors."""
    basis = []
    for row in rows:
        v = [Fraction(x) for x in row]
        for u in basis:
            uu = sum(Fraction(x) * x for x in u)
            vu = sum(a * b for a, b in zip(v, u))
            if vu:
                coef = vu / uu
                v = [a - coef * b for a, b in zip(v, u)]
        if any(v):
            basis.append(_primitive(v))
    return basis


def project_off_fraction(v, orth_basis):
    """Projection of v off span(orth_basis) in Fraction arithmetic, primitive;
    the zero vector when v lies in the span.  The basis must be orthogonal."""
    w = [Fraction(x) for x in v]
    for u in orth_basis:
        uu = sum(Fraction(x) * x for x in u)
        wu = sum(a * b for a, b in zip(w, u))
        if wu:
            coef = wu / uu
            w = [a - coef * b for a, b in zip(w, u)]
    if not any(w):
        return [0] * len(v)
    return _primitive(w)


def _fraction_nullspace(rows, ncols):
    """A basis of the right nullspace by Fraction Gauss-Jordan elimination."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -work[k][free]
        basis.append(v)
    return basis


def extremal_rays_by_subsets(rows, dim):
    """Extremal rays of the pointed cone ``{z : row.z >= 0}`` by brute force.

    A ray is extremal iff it is feasible and tight on rows of rank dim - 1, so
    every (dim - 1)-row subset whose nullspace is a line is tried with both
    signs of that line.  Returns the sorted primitive rays.
    """
    found = set()
    for subset in combinations(rows, dim - 1):
        null = _fraction_nullspace(subset, dim)
        if len(null) != 1:
            continue
        for sign in (1, -1):
            z = [sign * x for x in null[0]]
            if all(sum(Fraction(a) * b for a, b in zip(row, z)) >= 0 for row in rows):
                found.add(tuple(_primitive(z)))
    return [list(r) for r in sorted(found)]
