"""Integer views against Fraction oracles, on values that are not integers.

Valuated matroids, flags and height functions keep their values as integer
numerators over one common denominator, and every check reads that view.
These tests feed values whose denominators are 3 or 6, or differ from rank
to rank, and compare the results with the Fraction-arithmetic oracles of
``oracles.py`` and with the integral inputs that the values were scaled
from.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import (
    check_incidence_fraction,
    check_plucker_fraction,
    check_positive_incidence_fraction,
    check_positive_plucker_fraction,
    compress_attainers,
    lift_to_grassmannian_fraction,
    minors_by_leibniz,
)
from valperm.permutahedra import permutohedron_vertices
from valperm.polyhedra import lower_cells
from valperm.subdivisions import (
    HeightFunction,
    ValuatedFlagMatroid,
    check_two_skeleton,
    compress,
    compress_on_vertices,
    decompose_height,
    is_lattice_point,
    lift_to_grassmannian,
    subdivide,
)
from valperm.valuated import (
    PolyInT,
    ValuatedMatroid,
    check_incidence,
    check_plucker,
    check_positive_incidence,
    check_positive_plucker,
    tropicalize_matrix,
)

SCALES = (3, 6)
MIXED = (1, 2, 3, 5, 6)


def random_matrix(rng, n, denominators=(1,)):
    """An n x n matrix of PolyInTs with exponents 0..3; entries may vanish."""
    return [
        [
            PolyInT([
                (e, Fraction(rng.choice([-2, -1, 1, 2]), rng.choice(denominators)))
                for e in range(4) if rng.random() < 0.5
            ])
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def tropical_maps(rng, n, uniform):
    """The value maps of a random matrix's minors, one per rank 1..n."""
    while True:
        try:
            mus, _ = tropicalize_matrix(random_matrix(rng, n))
        except ValueError:
            continue
        if not uniform or all(m.is_uniform for m in mus):
            return mus


def divided(vm, k, rng=None):
    """vm with every value divided by k; with an rng, each value first moves
    by -1, 0 or 1, which breaks some three-term relations."""
    shift = (lambda: rng.choice((-1, 0, 1))) if rng else (lambda: 0)
    return ValuatedMatroid(vm.n, vm.d, {m: (v + shift()) / k for m, v in vm.values.items()})


def assert_same_violation(got, want):
    assert got == want
    if got is not None:
        assert all(t is None or type(t) is Fraction for t in got.terms)


def lifted(maps, rng):
    """The lift of a uniform flag to Gr(n, 2n), as it is and with each value
    moved by -1, 0 or 1 and divided by 2, which breaks some relations."""
    lift = lift_to_grassmannian(ValuatedFlagMatroid(maps, check=False))
    return [lift, divided(lift, 2, rng)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_three_term_checks_match_the_fraction_oracles(n):
    rng = random.Random(f"three-term/{n}")
    verdicts = {"plucker": set(), "incidence": set(), "positive-plucker": set(),
                "positive-incidence": set(), "lifted-plucker": set(),
                "lifted-positive-plucker": set()}
    for sample in range(30):
        uniform = sample % 2 == 0
        mus = tropical_maps(rng, n, uniform)
        jitter = rng if sample % 3 else None
        same = rng.choice(SCALES)
        for maps in (
            [divided(m, same, jitter) for m in mus],
            [divided(m, rng.choice(MIXED), jitter) for m in mus],
        ):
            for vm in maps:
                got = check_plucker(vm)
                assert_same_violation(got, check_plucker_fraction(vm))
                verdicts["plucker"].add(got is None)
            for lo, hi in zip(maps, maps[1:]):
                got = check_incidence(lo, hi)
                assert_same_violation(got, check_incidence_fraction(lo, hi))
                verdicts["incidence"].add(got is None)
            if not uniform:
                continue
            for vm in maps:
                got = check_positive_plucker(vm)
                assert_same_violation(got, check_positive_plucker_fraction(vm))
                verdicts["positive-plucker"].add(got is None)
            for lo, hi in zip(maps, maps[1:]):
                want = check_positive_incidence_fraction(lo, hi)
                got = check_positive_incidence(lo, hi)
                assert_same_violation(got, want)
                verdicts["positive-incidence"].add(got is None)
            # the Fraction oracle on Gr(6, 12) takes a while: lift every
            # third uniform sample there
            if n < 6 or sample % 6 == 0:
                for vm in lifted(maps, rng):
                    got = check_plucker(vm)
                    assert_same_violation(got, check_plucker_fraction(vm))
                    verdicts["lifted-plucker"].add(got is None)
                    got = check_positive_plucker(vm)
                    assert_same_violation(got, check_positive_plucker_fraction(vm))
                    verdicts["lifted-positive-plucker"].add(got is None)
    # both verdicts occur, so the violations were compared too; for n = 3 no
    # set has four elements outside it and the Plucker checks are vacuous
    if n == 3:
        assert verdicts.pop("plucker") == verdicts.pop("positive-plucker") == {True}
    # a positive lift is rare, and Gr(6, 12) sees the lifts of five samples only
    if n == 6:
        assert verdicts.pop("lifted-positive-plucker") == {False}
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


@pytest.mark.parametrize("n", [3, 4])
def test_lift_matches_the_fraction_oracle(n):
    rng = random.Random(f"lift/{n}")
    for sample in range(6):
        mus = tropical_maps(rng, n, uniform=True)
        for scales in ([rng.choice(SCALES)] * n, [rng.choice(MIXED) for _ in range(n)]):
            flag = ValuatedFlagMatroid(
                [divided(m, k, rng if sample % 2 else None) for m, k in zip(mus, scales)],
                check=False,
            )
            lifted = lift_to_grassmannian(flag)
            assert lifted == lift_to_grassmannian_fraction(flag)
            assert all(type(v) is Fraction for v in lifted.values.values())
            assert_same_violation(check_plucker(lifted), check_plucker_fraction(lifted))


@pytest.mark.parametrize("n", [3, 4])
def test_compress_matches_the_fraction_oracle(n):
    rng = random.Random(f"compress/{n}")
    points = [x for x in product(range(1, n + 1), repeat=n) if is_lattice_point(n, x)]
    for _ in range(3):
        mus = tropical_maps(rng, n, uniform=False)
        flag = ValuatedFlagMatroid([divided(m, rng.choice(MIXED)) for m in mus], check=False)
        for x in points:
            best = compress(flag, x)
            assert best == compress_attainers(flag, x)[0]
            assert best is None or type(best) is Fraction


def random_heights(rng, n):
    if rng.random() < 0.5:
        return compress_on_vertices(ValuatedFlagMatroid(tropical_maps(rng, n, uniform=True)))
    return HeightFunction(n, {v: rng.randint(-3, 3) for v in permutohedron_vertices(n)})


@pytest.mark.parametrize("n", [3, 4])
def test_scaled_heights_give_the_same_subdivision_and_report(n):
    rng = random.Random(f"scaled/{n}")
    for _ in range(6):
        w = random_heights(rng, n)
        for k in SCALES:
            scaled = HeightFunction(n, {v: h / k for v, h in w.heights.items()})
            assert scaled._den > 1 or set(w.heights.values()) <= {0}
            assert subdivide(scaled) == subdivide(w)
            assert check_two_skeleton(scaled) == check_two_skeleton(w)


@pytest.mark.parametrize("n", [3, 4])
def test_mixed_denominator_heights_subdivide_as_the_rational_hull(n):
    rng = random.Random(f"mixed/{n}")
    verts = permutohedron_vertices(n)
    for _ in range(6):
        w = HeightFunction(n, {v: Fraction(rng.randint(-6, 6), rng.choice(MIXED)) for v in verts})
        cells = [c.vertices for c in subdivide(w)]
        assert cells == lower_cells(verts, [w[v] for v in verts], verts)[0]


@pytest.mark.parametrize("n", [3, 4])
def test_decompose_round_trips_on_scaled_heights(n):
    rng = random.Random(f"decompose/{n}")
    for _ in range(4):
        mus = tropical_maps(rng, n, uniform=True)
        w = compress_on_vertices(ValuatedFlagMatroid(mus))
        base = decompose_height(w)
        for k in SCALES:
            scaled = HeightFunction(n, {v: h / k for v, h in w.heights.items()})
            flag = decompose_height(scaled)
            assert compress_on_vertices(flag) == scaled
            for got, want in zip(flag, base):
                assert got.values == {m: v / k for m, v in want.values.items()}
        # a different denominator in every rank: the flag is not incident in
        # general, but its compression still decomposes and round-trips
        mixed = ValuatedFlagMatroid([divided(m, rng.choice(MIXED)) for m in mus], check=False)
        w = compress_on_vertices(mixed)
        assert compress_on_vertices(decompose_height(w)) == w


@pytest.mark.parametrize("n", [3, 4])
def test_tropicalize_rational_coefficients_match_leibniz(n):
    rng = random.Random(f"tropicalize/{n}")
    checked = 0
    while checked < 8:
        mat = random_matrix(rng, n, denominators=(1, 2, 3, 6))
        want = minors_by_leibniz(mat)
        if not all(want):
            with pytest.raises(ValueError):
                tropicalize_matrix(mat)
            continue
        mus, signs = tropicalize_matrix(mat)
        for vm, smap, minors in zip(mus, signs, want):
            assert vm.values == {t: Fraction(e) for t, (e, _) in minors.items()}
            assert smap == {t: s for t, (_, s) in minors.items()}
        checked += 1
