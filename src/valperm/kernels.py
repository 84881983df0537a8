"""Exact integer linear-algebra kernels.

These are the hot inner loops of the whole package: fraction-free row
reduction, nullspaces and ray combination all operate on plain Python ints,
so results stay exact at arbitrary precision.  This pure-Python module is the
only implementation; ``IMPL`` names it, and the perfbench harness records it
with each run.
"""

from math import gcd

IMPL = "python"


def vec_gcd_reduce(v):
    """Divide an integer vector by the gcd of its entries (kept positive).

    >>> vec_gcd_reduce([6, -9, 0])
    [2, -3, 0]
    """
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            return list(v)
    if g <= 1:
        return list(v)
    return [x // g for x in v]


def dot(a, b):
    s = 0
    for x, y in zip(a, b):
        s += x * y
    return s


def rref(rows, ncols):
    """Reduced row echelon form of an integer matrix, kept integral.

    Returns ``(reduced, pivots)`` where ``reduced`` holds the nonzero rows,
    each gcd-reduced with a positive pivot entry.  Since the rational RREF of
    a matrix is unique, this integer scaling of it is canonical: two row sets
    span the same rowspace iff they produce identical output.
    """
    work = []
    for r in rows:
        if any(r):
            work.append(vec_gcd_reduce(r))
    nrows = len(work)
    pivots = []
    row_i = 0
    for col in range(ncols):
        piv = -1
        for i in range(row_i, nrows):
            if work[i][col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        work[row_i], work[piv] = work[piv], work[row_i]
        prow = work[row_i]
        a = prow[col]
        for i in range(nrows):
            if i == row_i:
                continue
            q = work[i]
            b = q[col]
            if b != 0:
                for j in range(ncols):
                    q[j] = q[j] * a - prow[j] * b
                work[i] = vec_gcd_reduce(q)
        pivots.append(col)
        row_i += 1
        if row_i == nrows:
            break
    out = []
    for k in range(row_i):
        r = vec_gcd_reduce(work[k])
        if r[pivots[k]] < 0:
            r = [-x for x in r]
        out.append(r)
    return out, pivots


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


def nullspace(rows, ncols):
    """Primitive integer basis of the rational nullspace, in canonical form.

    One basis vector per free column of the RREF; deterministic given the
    rowspace.
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
