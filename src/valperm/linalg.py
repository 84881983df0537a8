"""Small exact linear algebra layer on top of the integer kernels.

Everything here computes on Python ints.  Row reduction, rank and nullspace
are :mod:`valperm.kernels` functions, called directly on integer rows.
Fractions are accepted only by :func:`scale_to_int`, which callers apply to
every rational row before it reaches a kernel or this layer: it scales a
row by a positive denominator lcm, which preserves rank, nullspace, cone
membership and rowspace, all scale-invariant notions used here.
:func:`orthogonalize`, :func:`project_off` and :func:`project_rows_off`
take integer vectors only.  Outputs are primitive integer vectors, but for
:func:`project_rows_off`, which scales a family of rows by one factor so
that combinations of them project as combinations.  Double description
takes no seed from this layer: :mod:`valperm.polyhedra` starts each run
from the identity basis as the lineality and cuts it by the rows one at a
time, on any cone: the lineality left at the end is the cone's own, so no
rowspace reduction comes first.
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
    for x in row:
        if type(x) is not int:
            break
    else:
        return kernels.vec_gcd_reduce(row)
    mult = 1
    for x in row:
        if isinstance(x, float):
            raise TypeError(f"float {x!r} is not exact: give an int or a Fraction")
        mult = lcm(mult, x.denominator)
    return kernels.vec_gcd_reduce([int(x * mult) for x in row])


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


def orthogonalize(rows):
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
    :func:`orthogonalize`) and ``v`` an integer vector: a Fraction entry
    raises TypeError, so a rational ``v`` goes through :func:`scale_to_int`
    first.  Orthogonality makes the projection ``v - sum (v.u / u.u) u`` over
    the basis, and with ``L`` the lcm of the ``u.u`` whose ``v.u`` is
    nonzero, ``L v - sum (v.u) (L / u.u) u`` is a positive integer multiple
    of it with the same primitive form.  The zero vector comes back when v
    lies in the span.
    """
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


def project_rows_off(rows, orth_basis):
    """Project each row onto the orthogonal complement of span(orth_basis),
    all by one positive integer factor.

    The basis and rows are as for :func:`project_off`.  With ``L`` the lcm
    of every ``u.u``, each row ``v`` gives ``L v - sum (v.u) (L / u.u) u``,
    its projection times ``L``, and no row is made primitive: so a
    combination of ``rows`` projects to the same combination of the output
    rows, over ``L``.  :func:`project_off` takes a factor of its own per
    row instead, and returns it primitive.
    """
    norms = [kernels.dot(u, u) for u in orth_basis]
    mult = lcm(*norms)
    out = []
    for v in rows:
        w = [x * mult for x in v]
        for u, uu in zip(orth_basis, norms):
            c = kernels.dot(v, u) * (mult // uu)
            if c:
                w = [x - c * y for x, y in zip(w, u)]
        out.append(w)
    return out
