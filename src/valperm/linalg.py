"""Small exact linear algebra layer on top of the integer kernels.

Everything here computes on Python ints.  Row reduction, rank and nullspace
are :mod:`valperm.kernels` functions, called directly on integer rows.
Fractions are accepted only at the boundary: by :func:`scale_to_int`, which
callers apply to every rational row before it reaches a kernel, by the
vector ``v`` of :func:`project_off` and by the rows of :func:`orthogonalize`,
which are scaled by a positive denominator lcm before any arithmetic.  Such
scaling preserves rank, nullspace, cone membership and rowspace, all
scale-invariant notions used here.  Outputs are primitive integer vectors.
Double description takes no seed from this layer: :mod:`valperm.polyhedra`
starts each run from the identity basis as the lineality and cuts it by the
rows one at a time, on any cone: the lineality left at the end is the
cone's own, so no rowspace reduction comes first.
"""

from math import lcm

from valperm import kernels


def scale_to_int(row):
    """Scale a rational vector to a primitive integer one (same direction).

    Entries are ints or Fractions; a float raises TypeError, as
    :func:`valperm.valuated.exact` refuses one.

    >>> from fractions import Fraction
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
        if isinstance(x, float):
            raise TypeError(f"float {x!r} is not exact: give an int or a Fraction")
        mult = lcm(mult, x.denominator)
    return [int(x * mult) for x in row]


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
