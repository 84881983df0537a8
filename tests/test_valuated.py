import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from valperm.permutahedra import mask_from, parse_subset, subsets_of_size
from valperm.valuated import (
    Matroid,
    PolyInT,
    ValuatedMatroid,
    check_incidence,
    check_plucker,
    check_positive_incidence,
    check_positive_plucker,
    corank_valuation,
    elongate,
    embed_flag,
    is_quotient,
    tropicalize_matrix,
    truncate,
    uniform_matroid,
)

V = ValuatedMatroid.from_lex_values


def all_matroids(n, d):
    """Every matroid of rank d on [n], by filtering all basis families."""
    univ = list(subsets_of_size(n, d))
    out = []
    for r in range(1, len(univ) + 1):
        for fam in combinations(univ, r):
            try:
                out.append(Matroid(n, frozenset(fam)))
            except ValueError:
                pass
    return out


# ---------------------------------------------------------------------------
# matroids and construction


def test_matroid_validation():
    assert uniform_matroid(4, 2).d == 2
    with pytest.raises(ValueError):
        Matroid(4, frozenset({parse_subset("12"), parse_subset("34")}))
    with pytest.raises(ValueError):
        Matroid(3, frozenset())
    with pytest.raises(ValueError):
        Matroid(3, frozenset({parse_subset("1"), parse_subset("12")}))


def test_matroid_rank():
    m = Matroid(3, frozenset({mask_from([1]), mask_from([3])}))
    assert m.d == 1
    assert m.rank(parse_subset("2")) == 0  # loop
    assert m.rank(parse_subset("12")) == 1
    u = uniform_matroid(4, 2)
    assert u.rank(parse_subset("134")) == 2


def test_vm_construction():
    vm = V(3, 2, [1, 2, 1])
    assert vm.value(parse_subset("13")) == Fraction(2)
    assert vm.is_uniform and vm.support == frozenset(subsets_of_size(3, 2))
    assert isinstance(vm.value(parse_subset("12")), Fraction)
    partial = V(3, 1, [0, None, 0])
    assert partial.value(parse_subset("2")) is None and len(partial.values) == 2
    with pytest.raises(ValueError):
        V(3, 2, [1, 2])
    with pytest.raises(ValueError):
        V(4, 2, [0, None, None, None, None, 0])  # support {12, 34} fails exchange
    with pytest.raises(ValueError):
        ValuatedMatroid(3, 2, {parse_subset("123"): 0})


def test_vm_subset_given_twice_is_refused():
    # the keys 3 and "3" are both the mask of {1, 2}
    with pytest.raises(ValueError, match=r"12 is given twice \(key '3'\)"):
        ValuatedMatroid(3, 2, {3: 0, 5: 0, 6: 0, "3": 1})


def test_vm_values_are_read_only():
    # the checks read an integer view taken at construction, so a write to
    # the public values would leave them judging the old values
    vm = V(4, 2, [0] * 6)
    with pytest.raises(TypeError):
        vm.values[parse_subset("12")] = Fraction(-1)
    assert check_plucker(vm) is None


@pytest.mark.parametrize("name,value", [("n", 5), ("d", 3), ("values", {3: -1}), ("_ints", {})])
def test_vm_cannot_be_reassigned(name, value):
    # reassigning values would leave the integer view on the old ones: the
    # zero map on U(2,4) with the 12-value set to -1 violates the relations
    vm = V(4, 2, [0] * 6)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(vm, name, value)
    assert vm == V(4, 2, [0] * 6)
    assert check_plucker(vm) is None


def test_floats_are_refused():
    with pytest.raises(TypeError, match="float"):
        ValuatedMatroid(3, 1, {1: 0, 2: 0.5, 4: 0})
    with pytest.raises(TypeError, match="float"):
        PolyInT([(0, 1), (1, 0.5)])
    vm = ValuatedMatroid(3, 1, {1: "1/2", 2: Fraction(1, 3), 4: 2})
    assert vm.values == {1: Fraction(1, 2), 2: Fraction(1, 3), 4: Fraction(2)}
    assert (vm._ints, vm._den) == ({1: 3, 2: 2, 4: 12}, 6)
    assert PolyInT([(0, "1/2")]).terms == {0: Fraction(1, 2)}


# ---------------------------------------------------------------------------
# three-term checks


def test_plucker_zero_uniform():
    assert check_plucker(V(4, 2, [0] * 6)) is None


def test_plucker_violation_frozen():
    vm = V(4, 2, [0, 1, 1, 1, 1, 0])  # 12 and 34 at 0, the rest at 1
    v = check_plucker(vm)
    assert v is not None
    assert (v.kind, v.subset, v.elems) == ("plucker", 0, (1, 2, 3, 4))
    assert v.terms == (Fraction(0), Fraction(2), Fraction(2))


def test_plucker_rank_one_vacuous():
    assert check_plucker(V(5, 1, [3, 1, 4, 1, 5])) is None


@pytest.mark.parametrize("seed", range(4))
def test_plucker_corank_always_passes(seed):
    rng = random.Random(seed)
    n, d = rng.choice([(5, 2), (6, 3), (6, 2), (4, 2)])
    univ = list(subsets_of_size(n, d))
    matroid = None
    while matroid is None:
        fam = [b for b in univ if rng.random() < 0.7]
        try:
            matroid = Matroid(n, frozenset(fam))
        except ValueError:
            continue
    vm = corank_valuation(matroid)
    assert vm.is_uniform
    assert check_plucker(vm) is None


def test_corank_frozen_example():
    m = Matroid(3, frozenset({mask_from([1]), mask_from([3])}))
    assert corank_valuation(m) == V(3, 1, [0, 1, 0])
    assert corank_valuation(uniform_matroid(4, 2)) == V(4, 2, [0] * 6)


def test_incidence_example_pair():
    assert check_incidence(V(3, 1, [1, 0, 2]), V(3, 2, [1, 2, 1])) is None


@pytest.mark.parametrize("n,d", [(3, 1), (4, 1), (4, 2), (5, 3)])
def test_incidence_zero_uniform(n, d):
    from math import comb

    lo = V(n, d, [0] * comb(n, d))
    hi = V(n, d + 1, [0] * comb(n, d + 1))
    assert check_incidence(lo, hi) is None


def test_incidence_violation_frozen():
    v = check_incidence(V(3, 1, [0, 0, 0]), V(3, 2, [0, 1, 2]))
    assert v is not None
    assert (v.kind, v.subset, v.elems) == ("incidence", 0, (1, 2, 3))
    assert v.terms == (Fraction(2), Fraction(1), Fraction(0))


def test_incidence_rank_errors():
    with pytest.raises(ValueError):
        check_incidence(V(3, 1, [0, 0, 0]), V(3, 3, [0]))
    with pytest.raises(ValueError):
        check_incidence(V(3, 1, [0, 0, 0]), V(4, 2, [0] * 6))


def test_positive_plucker_examples():
    assert check_positive_plucker(V(4, 2, [0] * 6)) is None
    bad = V(4, 2, [0, 1, 0, 0, 0, 0])  # value 1 at 13
    v = check_positive_plucker(bad)
    assert v is not None and v.kind == "positive-plucker"
    assert v.terms == (Fraction(1), Fraction(0), Fraction(0))
    assert check_plucker(bad) is None  # positivity is strictly stronger
    assert check_positive_plucker(V(4, 2, [1, 0, 0, 0, 0, 0])) is None
    with pytest.raises(ValueError):
        check_positive_plucker(V(4, 2, [0, 0, 0, 0, 0, None]))


def test_positive_incidence_examples():
    assert check_positive_incidence(V(3, 1, [1, 0, 2]), V(3, 2, [1, 2, 1])) is None
    assert check_positive_incidence(V(3, 1, [0, 0, 0]), V(3, 2, [0, 0, 0])) is None
    v = check_positive_incidence(V(3, 1, [0, 0, 0]), V(3, 2, [0, 1, 0]))
    assert v is not None and v.kind == "positive-incidence"
    assert v.terms == (Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        check_positive_incidence(V(3, 1, [0, None, 0]), V(3, 2, [0, 0, 0]))
    with pytest.raises(ValueError):
        check_positive_incidence(V(3, 2, [0, 0, 0]), V(3, 1, [0, 0, 0]))


# ---------------------------------------------------------------------------
# truncation / elongation / flags


def test_truncate_elongate_frozen():
    vm = V(3, 2, [1, 2, 1])
    assert truncate(vm) == V(3, 1, [1, 1, 1])
    assert elongate(vm) == V(3, 3, [1])
    const = V(4, 2, [7] * 6)
    assert truncate(const) == V(4, 1, [7] * 4)
    with pytest.raises(ValueError):
        truncate(V(3, 0, [5]))
    with pytest.raises(ValueError):
        elongate(V(3, 3, [5]))


def test_full_truncation_reaches_min():
    rng = random.Random(7)
    vm = V(4, 3, [rng.randint(0, 9) for _ in range(4)])
    cur = vm
    for _ in range(vm.d):
        cur = truncate(cur)
    assert cur == ValuatedMatroid(4, 0, {0: min(vm.values.values())})


def random_valuated(rng, n=4, d=2, lo=0, hi=2):
    """Rejection-sample a value map on U(d,n) until the three-term check passes."""
    from math import comb

    while True:
        vm = V(n, d, [rng.randint(lo, hi) for _ in range(comb(n, d))])
        if check_plucker(vm) is None:
            return vm


@pytest.mark.parametrize("seed", range(5))
def test_truncation_elongation_are_quotients(seed):
    vm = random_valuated(random.Random(seed))
    assert check_plucker(truncate(vm)) is None
    assert check_plucker(elongate(vm)) is None
    assert check_incidence(truncate(vm), vm) is None
    assert check_incidence(vm, elongate(vm)) is None


def test_embed_flag_frozen():
    flag = embed_flag(V(3, 2, [1, 2, 1]))
    assert flag == [V(3, 1, [1, 1, 1]), V(3, 2, [1, 2, 1]), V(3, 3, [1])]
    zero = embed_flag(V(4, 2, [0] * 6))
    assert [f.d for f in zero] == [1, 2, 3, 4]
    assert all(set(f.values.values()) == {0} for f in zero)


@pytest.mark.parametrize("seed", range(5))
def test_embed_flag_consecutive_incidences(seed):
    flag = embed_flag(random_valuated(random.Random(10 + seed)))
    assert [f.d for f in flag] == [1, 2, 3, 4]
    for lo, hi in zip(flag, flag[1:]):
        assert check_incidence(lo, hi) is None


def test_truncate_elongate_galois():
    # round trip can only go down ...
    rng = random.Random(3)
    for _ in range(10):
        vm = random_valuated(rng, lo=0, hi=3)
        te = truncate(elongate(vm))
        assert all(te.value(b) <= v for b, v in vm.values.items())
    # ... and does go strictly down on some uniform-support valuated inputs
    spiky = V(4, 2, [5, 0, 0, 0, 0, 0])
    assert check_plucker(spiky) is None
    assert truncate(elongate(spiky)).value(parse_subset("12")) == 0
    # constants round-trip exactly
    const = V(4, 2, [3] * 6)
    assert truncate(elongate(const)) == const


# ---------------------------------------------------------------------------
# quotients


def test_quotient_examples():
    assert is_quotient(uniform_matroid(3, 1), uniform_matroid(3, 2))
    assert is_quotient(uniform_matroid(4, 2), uniform_matroid(4, 3))
    m = Matroid(3, frozenset({mask_from([1]), mask_from([3])}))
    n = Matroid(3, frozenset(subsets_of_size(3, 2)))
    assert is_quotient(m, n)
    assert not is_quotient(
        Matroid(3, frozenset({mask_from([1])})),
        Matroid(3, frozenset({mask_from([2, 3])})),
    )
    with pytest.raises(ValueError):
        is_quotient(uniform_matroid(3, 1), uniform_matroid(3, 3))


def test_corank_witness_restricts_and_contracts():
    # every rank-(1,2) quotient pair extends to a single-element witness whose
    # corank valuation restricts / contracts to the two corank valuations
    for n, expected_pairs in [(3, 22), (4, 120)]:
        lo_ms, hi_ms = all_matroids(n, 1), all_matroids(n, 2)
        pairs = [(m, nn) for m in lo_ms for nn in hi_ms if is_quotient(m, nn)]
        assert len(pairs) == expected_pairs
        ebit = 1 << n
        for m, nn in pairs:
            q = Matroid(n + 1, frozenset(nn.bases) | frozenset(b | ebit for b in m.bases))
            cq = corank_valuation(q)
            restr = {t: v for t, v in cq.values.items() if not t & ebit}
            contr = {t ^ ebit: v for t, v in cq.values.items() if t & ebit}
            assert restr == corank_valuation(nn).values
            assert contr == corank_valuation(m).values


# ---------------------------------------------------------------------------
# the 1-step theorems, exhaustively on n=4 ranks (1,2)


def test_one_step_theorem_exhaustive():
    grids1 = list(product((0, 1, 2), repeat=4))
    grids2 = list(product((0, 1, 2), repeat=6))
    passes = 0
    for v1 in grids1:
        lo = V(4, 1, list(v1))
        for v2 in grids2:
            hi = V(4, 2, list(v2))
            if check_incidence(lo, hi) is None:
                passes += 1
                assert check_plucker(lo) is None
                assert check_plucker(hi) is None
    assert passes > 0


def test_positive_one_step_exhaustive():
    grids1 = list(product((0, 1, 2), repeat=4))
    grids2 = list(product((0, 1, 2), repeat=6))
    passes = 0
    for v1 in grids1:
        lo = V(4, 1, list(v1))
        for v2 in grids2:
            hi = V(4, 2, list(v2))
            if check_positive_incidence(lo, hi) is None:
                passes += 1
                assert check_positive_plucker(lo) is None
                assert check_positive_plucker(hi) is None
    assert passes > 0


# ---------------------------------------------------------------------------
# tropicalization


def T(exp, coeff=1):
    return PolyInT.t(exp, coeff)


def C(c):
    return PolyInT.const(c)


def test_polyint_arithmetic():
    p = T(1) + C(1)
    q = p * p
    assert q == PolyInT({0: 1, 1: 2, 2: 1})
    assert (p - p) == PolyInT() and not (p - p)
    assert q.lowest() == (0, Fraction(1))
    assert PolyInT().lowest() is None
    assert (T(2) * T(3, -2)).lowest() == (5, Fraction(-2))


EXAMPLE_MATRIX = [
    [T(1), C(1), T(2)],
    [T(4), C(1) + T(2), T(1)],
    [C(1), C(1), C(1)],
]


def test_tropicalize_example_matrix():
    mus, signs = tropicalize_matrix(EXAMPLE_MATRIX)
    assert mus[0] == V(3, 1, [1, 0, 2])
    assert mus[1] == V(3, 2, [1, 2, 1])
    assert mus[2] == V(3, 3, [1])
    assert all(s == 1 for smap in signs for s in smap.values())


def test_tropicalize_determinant_oracle():
    # independent cofactor expansion of the example matrix determinant
    a = EXAMPLE_MATRIX
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    assert det == PolyInT({1: 2, 2: -2, 3: 1, 4: -2, 6: 1})
    mus, signs = tropicalize_matrix(EXAMPLE_MATRIX)
    assert mus[2].value(parse_subset("123")) == Fraction(det.lowest()[0])
    assert signs[2][parse_subset("123")] == 1


def test_tropicalize_identity_matrix():
    eye = [[C(1 if i == j else 0) for j in range(3)] for i in range(3)]
    mus, signs = tropicalize_matrix(eye)
    assert mus[0].support == {parse_subset("1")}
    assert mus[1].support == {parse_subset("12")}
    assert mus[2].support == {parse_subset("123")}
    assert all(v == 0 for m in mus for v in m.values.values())


def random_poly(rng):
    return PolyInT([(e, rng.choice([-2, -1, 1, 2])) for e in range(4) if rng.random() < 0.5])


@pytest.mark.parametrize("seed", range(6))
def test_tropicalize_row_scaling(seed):
    rng = random.Random(seed)
    while True:
        mat = [[random_poly(rng) for _ in range(3)] for _ in range(3)]
        try:
            base_mus, base_signs = tropicalize_matrix(mat)
            break
        except ValueError:
            continue
    r = rng.randint(1, 3)
    scaled = [
        [e * T(1) for e in row] if i + 1 == r else row for i, row in enumerate(mat)
    ]
    mus, signs = tropicalize_matrix(scaled)
    for i in range(3):
        if i + 1 < r:
            assert mus[i] == base_mus[i]
        else:
            assert mus[i].support == base_mus[i].support
            assert all(
                mus[i].value(b) == base_mus[i].value(b) + 1 for b in base_mus[i].support
            )
        assert signs[i] == base_signs[i]


@pytest.mark.parametrize("seed", range(4))
def test_tropicalize_lands_in_dressian(seed):
    rng = random.Random(40 + seed)
    while True:
        mat = [[random_poly(rng) for _ in range(4)] for _ in range(3)]
        try:
            mus, _ = tropicalize_matrix(mat)
            break
        except ValueError:
            continue
    for m in mus:
        assert check_plucker(m) is None
    for lo, hi in zip(mus, mus[1:]):
        assert check_incidence(lo, hi) is None


def test_tropicalize_errors():
    with pytest.raises(ValueError):
        tropicalize_matrix([[PolyInT(), PolyInT()], [C(1), C(1)]])
    with pytest.raises(ValueError):
        tropicalize_matrix([[C(1)], [C(1)]])  # k > n
    with pytest.raises(ValueError):
        tropicalize_matrix([[C(1), C(1)], [C(1)]])  # ragged
