"""Valuated matroids and their relations.

A valuated matroid of rank d on {1..n} is a finite value map on d-subsets
(absent subsets read as +infinity) whose support satisfies the basis-exchange
axiom.  This module provides the three-term relation checkers (plain and
positive variants, for one matroid and for consecutive-rank pairs),
truncation / elongation / full-flag embedding, corank valuations of ordinary
matroids, the geometric quotient test for supports, and tropicalization of
polynomial matrices into sequences of such value maps.

Public values are ``fractions.Fraction``s; floats are refused.  Each
valuated matroid also keeps an integer view of its values, taken once when
it is built: the numerators over their least positive common denominator.
The three-term relations only compare sums of values, which a common
positive scaling does not change, so every check runs on that view and
divides the sums it reports back into true units.

The relations themselves depend only on the shape: one table per kind,
built once per (n, d) on first use and cached, lists the masks of each
relation's three terms in scan order (Plücker relations of rank d, and
incidence relations between ranks d and d + 1).  A check reads its table
on a view in which an absent value is a sentinel above every finite sum, so
the +infinity rule is written out with integer comparisons: a relation
passes when none of its terms is finite, and fails when its least finite
term is attained only once.  A ``Violation`` reports an infinite term as
``None``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from types import MappingProxyType

from valperm import polyhedra
from valperm.permutahedra import (
    as_int,
    mask_elems,
    mask_indicator,
    mask_size,
    subset_str,
    subsets_of_size,
)


@lru_cache(maxsize=None)
def _validate_bases(n, bases):
    if not bases:
        raise ValueError("a matroid needs at least one basis")
    sizes = {mask_size(b) for b in bases}
    if len(sizes) != 1:
        raise ValueError("bases must all have the same size")
    if any(b < 0 or b >= 1 << n for b in bases):
        raise ValueError("basis outside the ground set")
    d = sizes.pop()
    if len(bases) == comb(n, d):
        return d  # every d-subset: the uniform matroid, no exchange to check
    for b1 in bases:
        for b2 in bases:
            for i in mask_elems(b1 & ~b2):
                bit_i = 1 << (i - 1)
                if not any(
                    (b1 ^ bit_i) | (1 << (j - 1)) in bases
                    for j in mask_elems(b2 & ~b1)
                ):
                    raise ValueError(
                        f"exchange fails for bases {subset_str(b1)}, {subset_str(b2)} at {i}"
                    )
    return d


@dataclass(frozen=True)
class Matroid:
    """An ordinary matroid given by its set of basis masks."""

    n: int
    bases: frozenset

    def __post_init__(self):
        object.__setattr__(self, "bases", frozenset(self.bases))
        _validate_bases(self.n, self.bases)

    @property
    def d(self):
        return mask_size(next(iter(self.bases)))

    def rank(self, mask):
        """Rank of a subset: the largest intersection with a basis."""
        return max(mask_size(b & mask) for b in self.bases)


def uniform_matroid(n, d):
    return Matroid(n, frozenset(subsets_of_size(n, d)))


def exact(value):
    """``value`` as a Fraction: ints, Fractions and rational strings pass,
    floats raise TypeError, so no binary fraction enters an exact object."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact: give an int, a Fraction or a string")
    return Fraction(value)


def integer_view(values):
    """``(ints, den)``: the Fraction values of a map as integer numerators
    over their least positive common denominator ``den``."""
    den = lcm(*(x.denominator for x in values.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in values.items()}, den


def common_view(vms):
    """``(ints, den)``: the integer views of several valuated matroids
    brought to one denominator, the lcm of theirs; ``ints`` is a list."""
    den = lcm(*(vm._den for vm in vms))
    return [
        vm._ints if vm._den == den else {m: t * (den // vm._den) for m, t in vm._ints.items()}
        for vm in vms
    ], den


class ValuatedMatroid:
    """Finite rational values on d-subset masks; support must be a matroid.

    A valuated matroid is immutable: ``values`` is a read-only mapping from
    each mask of the support to a Fraction, and no attribute can be
    reassigned, because the integer view of those values (``_ints`` over
    ``_den``) is taken once, here, and every check reads the view.  A key
    is a subset mask; one with a fractional part, such as 3.7, raises
    TypeError instead of being truncated.
    """

    __slots__ = ("n", "d", "values", "_ints", "_den")

    def __init__(self, n, d, values):
        vals = {}
        for key, v in values.items():
            mask = as_int(key)
            if mask_size(mask) != d or mask < 0 or mask >= 1 << n:
                raise ValueError(f"subset {subset_str(mask)} is not a {d}-subset of [{n}]")
            if mask in vals:
                raise ValueError(f"subset {subset_str(mask)} is given twice (key {key!r})")
            vals[mask] = exact(v)
        _validate_bases(n, frozenset(vals))
        ints, den = integer_view(vals)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "values", MappingProxyType(vals))
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"ValuatedMatroid is immutable: cannot set {name}")

    @classmethod
    def from_lex_values(cls, n, d, seq):
        """Build from values listed in lexicographic d-subset order.

        ``None`` entries mark subsets outside the support.

        >>> ValuatedMatroid.from_lex_values(3, 2, [1, 2, 1]).values[0b011]
        Fraction(1, 1)
        """
        masks = list(subsets_of_size(n, d))
        if len(seq) != len(masks):
            raise ValueError(f"expected {len(masks)} values, got {len(seq)}")
        return cls(n, d, {m: v for m, v in zip(masks, seq) if v is not None})

    @property
    def support(self):
        return frozenset(self.values)

    @property
    def is_uniform(self):
        return len(self.values) == comb(self.n, self.d)

    def value(self, mask):
        return self.values.get(mask)

    def __eq__(self, other):
        return (
            isinstance(other, ValuatedMatroid)
            and (self.n, self.d, self.values) == (other.n, other.d, other.values)
        )

    def __repr__(self):
        vals = ", ".join(f"{subset_str(m)}:{v}" for m, v in sorted(self.values.items()))
        return f"ValuatedMatroid(n={self.n}, d={self.d}, {{{vals}}})"


@dataclass(frozen=True)
class Violation:
    """First failing instance of a three-term relation, in scan order."""

    kind: str
    subset: int = 0
    elems: tuple = ()
    terms: tuple = ()


# ---------------------------------------------------------------------------
# three-term relations

# Each relation table lists, in scan order, one entry per three-term
# relation: the masks (a1, b1, a2, b2, a3, b3) whose values sum to the terms
# a1+b1, a2+b2 and a3+b3, then the subset S and the elements that a
# Violation reports.  A table depends only on (n, d), so it is built once,
# on first use, and every valuated matroid of that shape reads it.


@lru_cache(maxsize=32)
def _plucker_table(n, d):
    """``(masks, relations)`` of the Plücker relations of rank d on [n]:
    every d-subset, and for each (d-2)-subset S and i<j<k<l outside it the
    terms Sij+Skl, Sik+Sjl and Sil+Sjk."""
    relations = []
    for s in subsets_of_size(n, d - 2):
        outside = [(e, 1 << (e - 1)) for e in range(1, n + 1) if not s >> (e - 1) & 1]
        for (i, bi), (j, bj), (k, bk), (l, bl) in combinations(outside, 4):
            relations.append(
                (s | bi | bj, s | bk | bl, s | bi | bk, s | bj | bl, s | bi | bl, s | bj | bk,
                 s, (i, j, k, l))
            )
    return tuple(subsets_of_size(n, d)), tuple(relations)


@lru_cache(maxsize=32)
def _incidence_table(n, d):
    """``(masks, relations)`` of the incidence relations between ranks d and
    d + 1 on [n]: every d- and (d+1)-subset, and for each (d-1)-subset S and
    i<j<k outside it the terms Si+Sjk, Sj+Sik and Sk+Sij."""
    relations = []
    for s in subsets_of_size(n, d - 1):
        outside = [(e, 1 << (e - 1)) for e in range(1, n + 1) if not s >> (e - 1) & 1]
        for (i, bi), (j, bj), (k, bk) in combinations(outside, 3):
            relations.append(
                (s | bi, s | bj | bk, s | bj, s | bi | bk, s | bk, s | bi | bj, s, (i, j, k))
            )
    return tuple(subsets_of_size(n, d)) + tuple(subsets_of_size(n, d + 1)), tuple(relations)


def _sentinel_view(masks, views):
    """``(x, cap)``: each mask mapped to its value in one of the integer views
    (whose masks do not overlap), and ``cap``, the largest sum of two values.

    A mask that no view holds reads as a sentinel above ``cap`` minus the
    least value, so a term is finite exactly when its sum is at most
    ``cap``: every sum that contains an absent value exceeds it."""
    least = min(min(v.values()) for v in views)
    cap = 2 * max(max(v.values()) for v in views)
    x = dict.fromkeys(masks, cap - least + 1)
    for v in views:
        x.update(v)
    return x, cap


def _first_unique_minimum(relations, x, cap):
    """The first relation whose least finite term is attained only once, as
    ``(S, elems, terms)``; None when there is none.  A relation with no
    finite term passes: +infinity is attained three times."""
    for a1, b1, a2, b2, a3, b3, s, elems in relations:
        t1 = x[a1] + x[b1]
        t2 = x[a2] + x[b2]
        t3 = x[a3] + x[b3]
        least, second = (t2, t1) if t2 < t1 else (t1, t2)
        if t3 < least:
            least, second = t3, least
        elif t3 < second:
            second = t3
        if least < second and least <= cap:
            return s, elems, (t1, t2, t3)
    return None


def _first_non_positive(relations, x):
    """The first relation whose middle term is not the least of the other
    two, as ``(S, elems, (middle, first, last))``; None when there is none."""
    for a1, b1, a2, b2, a3, b3, s, elems in relations:
        t1 = x[a1] + x[b1]
        lhs = x[a2] + x[b2]
        t3 = x[a3] + x[b3]
        if lhs != (t1 if t1 < t3 else t3):
            return s, elems, (lhs, t1, t3)
    return None


def _violation(kind, found, den, cap):
    """The Violation of a failed relation, its terms back in true units and
    those above ``cap`` (containing an absent value) as None."""
    s, elems, terms = found
    return Violation(
        kind, s, elems, tuple(None if t > cap else Fraction(t, den) for t in terms)
    )


def check_plucker(vm):
    """Three-term relation check; None on pass, else the first Violation.

    For every (d-2)-subset S and i<j<k<l outside it, the minimum of the sums
    v(Sij)+v(Skl), v(Sik)+v(Sjl), v(Sil)+v(Sjk) must be attained at least
    twice (absent values read as +infinity).
    """
    masks, relations = _plucker_table(vm.n, vm.d)
    x, cap = _sentinel_view(masks, (vm._ints,))
    found = _first_unique_minimum(relations, x, cap)
    return None if found is None else _violation("plucker", found, vm._den, cap)


def _require_consecutive(lower, upper):
    if lower.n != upper.n:
        raise ValueError("ground sets differ")
    if upper.d != lower.d + 1:
        raise ValueError(f"ranks must be consecutive, got {lower.d} and {upper.d}")


def check_incidence(lower, upper):
    """Incidence check for a consecutive-rank pair; None on pass.

    All three-term sums lower(Si)+upper(Sjk) over (rank-1)-subsets S and
    i<j<k outside must attain their minimum twice, and the supports must
    form a quotient (see :func:`is_quotient`).
    """
    _require_consecutive(lower, upper)
    views, den = common_view((lower, upper))
    masks, relations = _incidence_table(lower.n, lower.d)
    x, cap = _sentinel_view(masks, views)
    found = _first_unique_minimum(relations, x, cap)
    if found is not None:
        return _violation("incidence", found, den, cap)
    if not _support_quotient(lower.n, lower.support, upper.support):
        return Violation("support-quotient")
    return None


def check_positive_plucker(vm):
    """Positive three-term check on uniform support; None on pass.

    Requires v(Sik)+v(Sjl) = min(v(Sij)+v(Skl), v(Sil)+v(Sjk)) for i<j<k<l.
    """
    if not vm.is_uniform:
        raise ValueError("positivity is only defined on uniform support")
    masks, relations = _plucker_table(vm.n, vm.d)
    x, cap = _sentinel_view(masks, (vm._ints,))
    found = _first_non_positive(relations, x)
    return None if found is None else _violation("positive-plucker", found, vm._den, cap)


def check_positive_incidence(lower, upper):
    """Positive incidence check for a consecutive uniform pair; None on pass.

    Requires lower(Sj)+upper(Sik) = min(lower(Si)+upper(Sjk),
    lower(Sk)+upper(Sij)) for i<j<k; a pass implies both constituents pass
    :func:`check_positive_plucker` (checked; a failure raises ``RuntimeError``).
    """
    _require_consecutive(lower, upper)
    if not (lower.is_uniform and upper.is_uniform):
        raise ValueError("positivity is only defined on uniform support")
    views, den = common_view((lower, upper))
    masks, relations = _incidence_table(lower.n, lower.d)
    x, cap = _sentinel_view(masks, views)
    found = _first_non_positive(relations, x)
    if found is not None:
        return _violation("positive-incidence", found, den, cap)
    if check_positive_plucker(lower) is not None:
        raise RuntimeError("check_positive_incidence: the lower constituent is not positive")
    if check_positive_plucker(upper) is not None:
        raise RuntimeError("check_positive_incidence: the upper constituent is not positive")
    return None


# ---------------------------------------------------------------------------
# operations


def truncate(vm):
    """Rank d-1 valuated matroid S -> min over supersets T of v(T)."""
    if vm.d < 1:
        raise ValueError("cannot truncate below rank 0")
    vals = {}
    for s in subsets_of_size(vm.n, vm.d - 1):
        best = None
        for e in range(1, vm.n + 1):
            if s >> (e - 1) & 1:
                continue
            v = vm.values.get(s | 1 << (e - 1))
            if v is not None and (best is None or v < best):
                best = v
        if best is not None:
            vals[s] = best
    return ValuatedMatroid(vm.n, vm.d - 1, vals)


def elongate(vm):
    """Rank d+1 valuated matroid S -> min over subsets T of v(T)."""
    if vm.d > vm.n - 1:
        raise ValueError("cannot elongate past the full ground set")
    vals = {}
    for s in subsets_of_size(vm.n, vm.d + 1):
        best = None
        for e in mask_elems(s):
            v = vm.values.get(s & ~(1 << (e - 1)))
            if v is not None and (best is None or v < best):
                best = v
        if best is not None:
            vals[s] = best
    return ValuatedMatroid(vm.n, vm.d + 1, vals)


def embed_flag(vm):
    """Extend to a full flag of ranks 1..n by truncating down and elongating up."""
    downs = []
    cur = vm
    for _ in range(vm.d - 1):
        cur = truncate(cur)
        downs.append(cur)
    ups = []
    cur = vm
    for _ in range(vm.n - vm.d):
        cur = elongate(cur)
        ups.append(cur)
    return list(reversed(downs)) + [vm] + ups


def corank_valuation(m):
    """The corank value map T -> rk(M) - rank_M(T) on all rk(M)-subsets."""
    d = m.d
    vals = {t: Fraction(d - m.rank(t)) for t in subsets_of_size(m.n, d)}
    return ValuatedMatroid(m.n, d, vals)


def is_quotient(lower, upper):
    """Geometric quotient test for ordinary matroids of consecutive ranks.

    Lift the lower-rank basis indicators to height 1 and the upper-rank ones
    to height 0; the pair is a quotient iff every edge of the convex hull is
    a difference of two unit vectors of R^{n+1} (the lift coordinate counts
    as a coordinate, so a cross-level edge must join nested bases).
    """
    _require_consecutive(lower, upper)
    n = lower.n
    pts = {}
    for b in lower.bases:
        pts[(1, b)] = mask_indicator(b, n) + (1,)
    for b in upper.bases:
        pts[(0, b)] = mask_indicator(b, n) + (0,)
    labels = sorted(pts)
    _, edges = polyhedra.hull_edges([pts[lab] for lab in labels], labels)
    for u, v in edges:
        diff = sorted(a - b for a, b in zip(pts[u], pts[v]))
        if diff != [-1] + [0] * (n - 1) + [1]:
            return False
    return True


@lru_cache(maxsize=None)
def _support_quotient(n, lo_bases, hi_bases):
    return is_quotient(Matroid(n, lo_bases), Matroid(n, hi_bases))


# ---------------------------------------------------------------------------
# tropicalization


class PolyInT:
    """Sparse polynomial in one variable with integer exponents, Fraction coefficients.

    Coefficients may be given as ints, Fractions or rational strings; floats
    raise TypeError, and so does an exponent with a fractional part.
    :func:`tropicalize_matrix` does not multiply PolyInTs: it clears each
    matrix row's denominators once and expands the minors over integer
    coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            e = as_int(e)
            acc[e] = acc.get(e, Fraction(0)) + exact(c)
        self.terms = {e: c for e, c in acc.items() if c}

    @classmethod
    def const(cls, c):
        return cls([(0, c)])

    @classmethod
    def t(cls, exp=1, coeff=1):
        return cls([(exp, coeff)])

    def __add__(self, other):
        return PolyInT(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyInT([(e, -c) for e, c in self.terms.items()])

    def __mul__(self, other):
        out = []
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out.append((e1 + e2, c1 * c2))
        return PolyInT(out)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, PolyInT) and self.terms == other.terms

    def lowest(self):
        """(exponent, coefficient) of the lowest-order term; None if zero."""
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def __repr__(self):
        if not self.terms:
            return "PolyInT(0)"
        parts = [f"{c}*t^{e}" for e, c in sorted(self.terms.items())]
        return "PolyInT(" + " + ".join(parts) + ")"


def _integer_row(row):
    """A matrix row of PolyInTs as ``{exponent: int}`` dicts, scaled by the
    positive lcm of the row's coefficient denominators."""
    den = lcm(*(c.denominator for poly in row for c in poly.terms.values()))
    return [
        {e: c.numerator * (den // c.denominator) for e, c in poly.terms.items()} for poly in row
    ]


def tropicalize_matrix(entries):
    """Value maps and lowest-coefficient signs of all top-block minors.

    ``entries`` is a k x n matrix of :class:`PolyInT` (k <= n).  For each
    i = 1..k the i x i minors on rows 1..i give a rank-i valuated matroid
    (value = lowest exponent of the minor; zero minors leave the support) and
    a sign map (sign of the lowest-order coefficient).  A row block whose
    minors all vanish raises ValueError.

    Each row is first scaled by the positive lcm of its coefficients'
    denominators.  That multiplies every minor by a positive constant, which
    changes neither its lowest exponent nor that term's sign, and lets the
    minors expand over integer coefficients.

    Returns ``(value_maps, sign_maps)`` as parallel lists.
    """
    k = len(entries)
    n = len(entries[0]) if k else 0
    if any(len(row) != n for row in entries):
        raise ValueError("ragged matrix")
    if not 1 <= k <= n:
        raise ValueError(f"need a k x n matrix with 1 <= k <= n, got {k} x {n}")

    prev = {0: {0: 1}}
    value_maps, sign_maps = [], []
    for i in range(1, k + 1):
        row = _integer_row(entries[i - 1])
        cur = {}
        for t in subsets_of_size(n, i):
            acc = {}
            for m, j in enumerate(mask_elems(t)):
                sub_minor = prev.get(t & ~(1 << (j - 1)))
                if sub_minor is None:
                    continue
                sign = 1 if (i + m + 1) % 2 == 0 else -1
                for e1, c1 in row[j - 1].items():
                    c1 *= sign
                    for e2, c2 in sub_minor.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
            acc = {e: c for e, c in acc.items() if c}
            if acc:
                cur[t] = acc
        if not cur:
            raise ValueError(f"every {i} x {i} minor of the top {i} rows vanishes")
        vals, signs = {}, {}
        for t, poly in cur.items():
            exp = min(poly)
            vals[t] = exp
            signs[t] = 1 if poly[exp] > 0 else -1
        value_maps.append(ValuatedMatroid(n, i, vals))
        sign_maps.append(signs)
        prev = cur
    return value_maps, sign_maps
