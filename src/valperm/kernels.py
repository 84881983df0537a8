"""Exact integer linear-algebra kernels.

These are the hot inner loops of the whole package: row reduction,
nullspaces and ray combination all operate on plain Python ints, so results
stay exact at arbitrary precision.  All row elimination is one
fraction-free forward pass, :func:`_echelon`: :func:`rank` counts its
pivots, :func:`rref` is that pass plus back-substitution, and
:func:`nullspace` is read off the RREF.  A rank asked only up to a bound
that it cannot exceed, as the extremality certificate of
:mod:`valperm.polyhedra` asks it, stops the pass at that many pivots.
This pure-Python module is the only implementation; ``IMPL`` names it, and
the perfbench harness records it with each run.
"""

from math import gcd
from operator import mul

IMPL = "python"


def vec_gcd_reduce(v):
    """Divide an integer vector by the gcd of its entries (kept positive).

    >>> vec_gcd_reduce([6, -9, 0])
    [2, -3, 0]
    """
    g = gcd(*v)
    if g <= 1:
        return list(v)
    return [x // g for x in v]


def dot(a, b):
    return sum(map(mul, a, b))


def _echelon(rows, ncols, stop=None):
    """Fraction-free forward elimination: ``(echelon rows, pivot columns)``.

    Zero rows are dropped, each pivot clears the rows below it, and every
    changed row is gcd-reduced.  The caller's lists are never mutated: a
    changed row is a new list.  With ``stop`` the pass ends at that many
    pivots, leaving the rows below the last one as they are.
    """
    work = [r for r in rows if any(r)]
    nrows = len(work)
    last = nrows if stop is None else min(nrows, stop)
    pivots = []
    for col in range(ncols):
        row_i = len(pivots)
        if row_i == last:
            break
        for i in range(row_i, nrows):
            if work[i][col]:
                break
        else:
            continue
        work[row_i], work[i] = work[i], work[row_i]
        pivots.append(col)
        if row_i + 1 == last:
            break
        prow = work[row_i]
        a = prow[col]
        for i in range(row_i + 1, nrows):
            q = work[i]
            b = q[col]
            if b:
                work[i] = vec_gcd_reduce([x * a - y * b for x, y in zip(q, prow)])
    return work[:len(pivots)], pivots


def rref(rows, ncols):
    """Reduced row echelon form of an integer matrix, kept integral.

    Returns ``(reduced, pivots)`` where ``reduced`` holds the nonzero rows,
    each gcd-reduced with a positive pivot entry.  Since the rational RREF of
    a matrix is unique, this integer scaling of it is canonical: two row sets
    span the same rowspace iff they produce identical output.  It is the
    forward pass :func:`_echelon`, then back-substitution from the last
    pivot up; the rows are gcd-reduced and their signs fixed at the end.

    >>> rref([[2, 4, 6], [1, 3, 5]], 3)
    ([[1, 0, -1], [0, 1, 2]], [0, 1])
    """
    work, pivots = _echelon(rows, ncols)
    for k in reversed(range(len(pivots))):
        prow = work[k]
        col = pivots[k]
        a = prow[col]
        for i in range(k):
            q = work[i]
            b = q[col]
            if b:
                work[i] = vec_gcd_reduce([x * a - y * b for x, y in zip(q, prow)])
    for k, col in enumerate(pivots):
        r = vec_gcd_reduce(work[k])
        work[k] = [-x for x in r] if r[col] < 0 else r
    return work, pivots


def rank(rows, ncols, stop=None):
    """Rank of an integer matrix: the pivot count of the forward pass.

    Only the rows below each pivot are cleared: there is no back-substitution
    and no normalization of the output, which :func:`rref` needs for its
    canonical form but a rank does not.  With ``stop`` the pass ends at
    that many pivots, so the result is ``min(rank, stop)``: a caller that
    only asks whether the rank reaches a bound it cannot exceed stops there.

    >>> rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3)
    2
    >>> rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, stop=2)
    2
    >>> rank([[1, 2, 3], [2, 4, 6]], 3, stop=2)
    1
    """
    return len(_echelon(rows, ncols, stop)[1])


def nullspace(rows, ncols):
    """Primitive integer basis of the rational nullspace, in canonical form.

    One basis vector per free column of the RREF; deterministic given the
    rowspace.  With no rows it is the identity basis.
    """
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        lcm = 1
        for k, p in enumerate(pivots):
            e = red[k][p]
            lcm = lcm * e // gcd(lcm, e)
        v[free] = lcm
        for k, p in enumerate(pivots):
            v[p] = -red[k][free] * (lcm // red[k][p])
        basis.append(vec_gcd_reduce(v))
    return basis


def combine_ray(pos_ray, neg_ray, wpos, wneg):
    """Positive combination ``wpos*neg_ray - wneg*pos_ray`` of two rays.

    With ``wpos = b.pos_ray > 0`` and ``wneg = b.neg_ray < 0`` the result lies
    on the hyperplane ``b.x = 0``; returned gcd-reduced.
    """
    return vec_gcd_reduce([wpos * y - wneg * x for x, y in zip(pos_ray, neg_ray)])
