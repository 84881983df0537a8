"""Valuated matroids and their relations.

A valuated matroid of rank d on {1..n} is a finite value map on d-subsets
(absent subsets read as +infinity) whose support satisfies the basis-exchange
axiom.  This module provides the three-term relation checkers (plain and
positive variants, for one matroid and for consecutive-rank pairs),
truncation / elongation / full-flag embedding, corank valuations of ordinary
matroids, the geometric quotient test for supports, and tropicalization of
polynomial matrices into sequences of such value maps.

Value maps use ``None`` for +infinity in all internal arithmetic; rationals
are ``fractions.Fraction`` throughout.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from valperm import polyhedra
from valperm.permutahedra import (
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
    return sizes.pop()


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


class ValuatedMatroid:
    """Finite rational values on d-subset masks; support must be a matroid."""

    __slots__ = ("n", "d", "values")

    def __init__(self, n, d, values):
        vals = {}
        for mask, v in values.items():
            mask = int(mask)
            if mask_size(mask) != d or mask < 0 or mask >= 1 << n:
                raise ValueError(f"subset {subset_str(mask)} is not a {d}-subset of [{n}]")
            vals[mask] = Fraction(v)
        _validate_bases(n, frozenset(vals))
        self.n = n
        self.d = d
        self.values = vals

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

    def support_matroid(self):
        return Matroid(self.n, frozenset(self.values))

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


def _add(a, b):
    if a is None or b is None:
        return None
    return a + b


def _min_twice(terms):
    finite = [t for t in terms if t is not None]
    if not finite:
        return True
    return finite.count(min(finite)) >= 2


def check_plucker(vm):
    """Three-term relation check; None on pass, else the first Violation.

    For every (d-2)-subset S and i<j<k<l outside it, the minimum of the sums
    v(Sij)+v(Skl), v(Sik)+v(Sjl), v(Sil)+v(Sjk) must be attained at least
    twice (absent values read as +infinity).
    """
    v = vm.values.get
    for s in subsets_of_size(vm.n, vm.d - 2):
        outside = [e for e in range(1, vm.n + 1) if not s >> (e - 1) & 1]
        for i, j, k, l in combinations(outside, 4):
            bi, bj, bk, bl = (1 << (x - 1) for x in (i, j, k, l))
            terms = (
                _add(v(s | bi | bj), v(s | bk | bl)),
                _add(v(s | bi | bk), v(s | bj | bl)),
                _add(v(s | bi | bl), v(s | bj | bk)),
            )
            if not _min_twice(terms):
                return Violation("plucker", s, (i, j, k, l), terms)
    return None


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
    lo, hi = lower.values.get, upper.values.get
    for s in subsets_of_size(lower.n, lower.d - 1):
        outside = [e for e in range(1, lower.n + 1) if not s >> (e - 1) & 1]
        for i, j, k in combinations(outside, 3):
            bi, bj, bk = (1 << (x - 1) for x in (i, j, k))
            terms = (
                _add(lo(s | bi), hi(s | bj | bk)),
                _add(lo(s | bj), hi(s | bi | bk)),
                _add(lo(s | bk), hi(s | bi | bj)),
            )
            if not _min_twice(terms):
                return Violation("incidence", s, (i, j, k), terms)
    if not _support_quotient(lower.n, lower.support, upper.support):
        return Violation("support-quotient")
    return None


def check_positive_plucker(vm):
    """Positive three-term check on uniform support; None on pass.

    Requires v(Sik)+v(Sjl) = min(v(Sij)+v(Skl), v(Sil)+v(Sjk)) for i<j<k<l.
    """
    if not vm.is_uniform:
        raise ValueError("positivity is only defined on uniform support")
    v = vm.values.get
    for s in subsets_of_size(vm.n, vm.d - 2):
        outside = [e for e in range(1, vm.n + 1) if not s >> (e - 1) & 1]
        for i, j, k, l in combinations(outside, 4):
            bi, bj, bk, bl = (1 << (x - 1) for x in (i, j, k, l))
            lhs = v(s | bi | bk) + v(s | bj | bl)
            t1 = v(s | bi | bj) + v(s | bk | bl)
            t2 = v(s | bi | bl) + v(s | bj | bk)
            if lhs != min(t1, t2):
                return Violation("positive-plucker", s, (i, j, k, l), (lhs, t1, t2))
    return None


def check_positive_incidence(lower, upper):
    """Positive incidence check for a consecutive uniform pair; None on pass.

    Requires lower(Sj)+upper(Sik) = min(lower(Si)+upper(Sjk),
    lower(Sk)+upper(Sij)) for i<j<k; a pass implies both constituents pass
    :func:`check_positive_plucker` (checked; a failure raises ``RuntimeError``).
    """
    _require_consecutive(lower, upper)
    if not (lower.is_uniform and upper.is_uniform):
        raise ValueError("positivity is only defined on uniform support")
    lo, hi = lower.values.get, upper.values.get
    for s in subsets_of_size(lower.n, lower.d - 1):
        outside = [e for e in range(1, lower.n + 1) if not s >> (e - 1) & 1]
        for i, j, k in combinations(outside, 3):
            bi, bj, bk = (1 << (x - 1) for x in (i, j, k))
            lhs = lo(s | bj) + hi(s | bi | bk)
            t1 = lo(s | bi) + hi(s | bj | bk)
            t2 = lo(s | bk) + hi(s | bi | bj)
            if lhs != min(t1, t2):
                return Violation("positive-incidence", s, (i, j, k), (lhs, t1, t2))
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
    if lower.n != upper.n:
        raise ValueError("ground sets differ")
    if upper.d != lower.d + 1:
        raise ValueError(f"ranks must be consecutive, got {lower.d} and {upper.d}")
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
    """Sparse polynomial in one variable with integer exponents, Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            e = int(e)
            acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
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


def tropicalize_matrix(entries):
    """Value maps and lowest-coefficient signs of all top-block minors.

    ``entries`` is a k x n matrix of :class:`PolyInT` (k <= n).  For each
    i = 1..k the i x i minors on rows 1..i give a rank-i valuated matroid
    (value = lowest exponent of the minor; zero minors leave the support) and
    a sign map (sign of the lowest-order coefficient).  A row block whose
    minors all vanish raises ValueError.

    Returns ``(value_maps, sign_maps)`` as parallel lists.
    """
    k = len(entries)
    n = len(entries[0]) if k else 0
    if any(len(row) != n for row in entries):
        raise ValueError("ragged matrix")
    if not 1 <= k <= n:
        raise ValueError(f"need a k x n matrix with 1 <= k <= n, got {k} x {n}")

    prev = {0: PolyInT.const(1)}
    value_maps, sign_maps = [], []
    for i in range(1, k + 1):
        row = entries[i - 1]
        cur = {}
        for t in subsets_of_size(n, i):
            acc = PolyInT()
            for m, j in enumerate(mask_elems(t)):
                sub_minor = prev.get(t & ~(1 << (j - 1)))
                if sub_minor is None:
                    continue
                term = row[j - 1] * sub_minor
                acc = acc + (term if (i + m + 1) % 2 == 0 else -term)
            if acc:
                cur[t] = acc
        if not cur:
            raise ValueError(f"every {i} x {i} minor of the top {i} rows vanishes")
        vals, signs = {}, {}
        for t, poly in cur.items():
            exp, coeff = poly.lowest()
            vals[t] = Fraction(exp)
            signs[t] = 1 if coeff > 0 else -1
        value_maps.append(ValuatedMatroid(n, i, vals))
        sign_maps.append(signs)
        prev = cur
    return value_maps, sign_maps
