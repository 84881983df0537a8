"""Small exact linear algebra layer on top of the integer kernels.

Everything here computes on Python ints.  Fractions are accepted only at the
boundary: by :func:`scale_to_int` (and the ``rank``/``rref``/``nullspace``
wrappers that call it on every row), by the vector ``v`` of
:func:`project_off` and by the rows of :func:`orthogonalize`, which are
scaled by a positive denominator lcm before any arithmetic.  Such scaling
preserves rank, nullspace, cone membership and rowspace — all
scale-invariant notions used here.  Outputs are primitive integer vectors.
"""

from math import lcm

from valperm import kernels


def scale_to_int(row):
    """Scale a rational vector to a primitive integer one (same direction).

    >>> scale_to_int([Fraction(1, 2), Fraction(-3, 4), 0])
    [2, -3, 0]
    """
    return kernels.vec_gcd_reduce(_clear_denominators(row))


def _clear_denominators(row):
    """``row`` itself when every entry is an int, else its multiple by the lcm
    of the entries' denominators, as a list of ints."""
    for x in row:
        if type(x) is not int:
            break
    else:
        return row
    mult = 1
    for x in row:
        mult = lcm(mult, x.denominator)
    return [int(x * mult) for x in row]


def to_int_rows(rows):
    return [scale_to_int(r) for r in rows]


def rank(rows, ncols):
    if not rows:
        return 0
    return kernels.rank(to_int_rows(rows), ncols)


def rref(rows, ncols):
    if not rows:
        return [], []
    return kernels.rref(to_int_rows(rows), ncols)


def nullspace(rows, ncols):
    """Primitive integer basis of the right nullspace; the full space if no rows."""
    if not rows:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    return kernels.nullspace(to_int_rows(rows), ncols)


def mat_mul(a, b_rows):
    """Product a * b for row-lists (len(a[0]) == len(b_rows))."""
    ncols = len(b_rows[0]) if b_rows else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for coef, brow in zip(row, b_rows):
            if coef:
                for j in range(ncols):
                    acc[j] += coef * brow[j]
        out.append(acc)
    return out


def inverse_columns_primitive(mat):
    """Columns of the inverse of a square integer matrix, each scaled primitive.

    Used to seed the double description run with a simplicial cone: column j
    is the ray sent to a positive multiple of e_j.
    """
    n = len(mat)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(mat)]
    red, pivots = kernels.rref(aug, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # Row k reads red[k][k] * x_k = red[k][n + j]; the pivots are positive.
    mult = 1
    for k in range(n):
        mult = lcm(mult, red[k][k])
    scales = [mult // red[k][k] for k in range(n)]
    return [kernels.vec_gcd_reduce([red[k][n + j] * scales[k] for k in range(n)]) for j in range(n)]


def orthogonalize(rows, ncols):
    """Gram-Schmidt without normalization; primitive integer output vectors.

    Each row is projected off the span of the vectors kept so far with
    :func:`project_off` and kept when something remains, so the output is an
    orthogonal basis of the rowspace.  Integer arithmetic throughout.
    """
    basis = []
    for row in rows:
        v = project_off(row, basis)
        if any(v):
            basis.append(v)
    return basis


def project_off(v, orth_basis):
    """Project v onto the orthogonal complement of span(orth_basis); primitive.

    The basis must be pairwise orthogonal integer vectors (as returned by
    :func:`orthogonalize`); ``v`` may be rational.  Orthogonality makes the
    projection ``v - sum (v.u / u.u) u`` over the basis, and with ``L`` the
    lcm of the ``u.u`` whose ``v.u`` is nonzero, ``L v - sum (v.u) (L / u.u) u``
    is a positive integer multiple of it with the same primitive form.  The
    zero vector comes back when v lies in the span.
    """
    v = _clear_denominators(v)
    terms = []
    mult = 1
    for u in orth_basis:
        vu = kernels.dot(v, u)
        if vu:
            uu = kernels.dot(u, u)
            terms.append((vu, uu, u))
            mult = lcm(mult, uu)
    if not terms:
        return kernels.vec_gcd_reduce(v)
    w = [x * mult for x in v]
    for vu, uu, u in terms:
        c = vu * (mult // uu)
        for j, x in enumerate(u):
            if x:
                w[j] -= c * x
    return kernels.vec_gcd_reduce(w)
