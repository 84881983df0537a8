"""The per-shape tables the flag certificate chain reads.

The three-term checks read one relation table per kind and (n, d), the lift
one gap table per n, the Bruhat tests one length table per n, and the
potentials of a height function one shared exchange tree per n.
These tests compare the tables' readers with the oracles, pin the
+infinity rule on hand-built value maps with absent values, and check that
importing the package builds none of the tables.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oracles import (
    bruhat_interval_full_scan,
    hypersimplex_edges,
    check_incidence_fraction,
    check_plucker_fraction,
    check_positive_incidence_fraction,
    check_positive_plucker_fraction,
)
from valperm.permutahedra import (
    bruhat_interval,
    bruhat_leq,
    inversions,
    mask_from,
    permutohedron_vertices,
    subsets_of_size,
    vertex_lengths,
    vertex_to_flag,
)
from valperm.subdivisions import (
    HeightFunction,
    _exchange_tree,
    compress_on_vertices,
    decompose_height,
)
from valperm.valuated import (
    ValuatedMatroid,
    Violation,
    check_incidence,
    check_plucker,
    check_positive_incidence,
    check_positive_plucker,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def vm(n, d, values):
    """A valuated matroid from ``{"13": value}``-style keys."""
    return ValuatedMatroid(n, d, {mask_from(int(c) for c in k): v for k, v in values.items()})


def terms(*values):
    return tuple(None if t is None else Fraction(t) for t in values)


# ---------------------------------------------------------------------------
# the +infinity rule on hand-built value maps


# Rank 2 on [4]: one Plücker relation, terms 12+34, 13+24, 14+23.  The
# support {12, 13, 24, 34} is a matroid that leaves the third term absent.
TWO_TERMS = ("12", "13", "24", "34")


@pytest.mark.parametrize(
    "values, want",
    [
        # no finite term: 4 is a loop, so every term has an absent value
        ({"12": 0, "13": 5, "23": 9}, None),
        # two equal finite terms, the third absent
        (dict(zip(TWO_TERMS, (1, 2, 1, 2))), None),
        # two unequal finite terms: the least is unique
        (dict(zip(TWO_TERMS, (1, 2, 4, 2))), terms(3, 6, None)),
        # negative values, equal and unequal
        (dict(zip(TWO_TERMS, (-3, -2, -2, -1))), None),
        (dict(zip(TWO_TERMS, (-3, -2, -5, -1))), terms(-4, -7, None)),
        # all three finite, negative, least unique
        ({"12": -1, "13": -1, "14": -1, "23": -1, "24": -1, "34": -4}, terms(-5, -2, -2)),
    ],
)
def test_plucker_with_absent_values(values, want):
    got = check_plucker(vm(4, 2, values))
    assert got == (None if want is None else Violation("plucker", 0, (1, 2, 3, 4), want))
    assert got == check_plucker_fraction(vm(4, 2, values))


def test_positive_plucker_reports_its_terms():
    uniform = {"12": 0, "13": 1, "14": 0, "23": 0, "24": 0, "34": 0}
    got = check_positive_plucker(vm(4, 2, uniform))
    # middle 13+24 = 1 is not the least of 12+34 = 0 and 14+23 = 0
    assert got == Violation("positive-plucker", 0, (1, 2, 3, 4), terms(1, 0, 0))
    assert got == check_positive_plucker_fraction(vm(4, 2, uniform))


# Ranks 1 and 2 on [3]: one incidence relation, terms 1+23, 2+13, 3+12.
UPPER = {"12": 0, "13": 0, "23": 5}


@pytest.mark.parametrize(
    "lower, upper, want",
    [
        # one finite term: it is the unique least one
        ({"1": 1}, UPPER, terms(6, None, None)),
        # the unique least finite term is the largest finite sum there is
        ({"1": 5}, UPPER, terms(10, None, None)),
        # two finite terms with negative values, unequal and equal
        ({"1": -2, "2": 3}, {"12": -7, "13": -4, "23": 2}, terms(0, -1, None)),
        ({"1": -2, "2": 3}, {"12": -7, "13": -4, "23": 1}, None),
        # no finite term: 1 and 2 are loops above, 3 a loop below
        ({"1": 0, "2": 4}, {"12": 3}, None),
    ],
)
def test_incidence_with_absent_values(lower, upper, want):
    lo, hi = vm(3, 1, lower), vm(3, 2, upper)
    got = check_incidence(lo, hi)
    assert got == check_incidence_fraction(lo, hi)
    if want is None:
        # the relation passes; only the supports can fail
        assert got in (None, Violation("support-quotient"))
    else:
        assert got == Violation("incidence", 0, (1, 2, 3), want)


def test_positive_incidence_reports_its_terms():
    lo = vm(3, 1, {"1": 0, "2": 1, "3": 0})
    hi = vm(3, 2, {"12": 0, "13": 0, "23": 0})
    got = check_positive_incidence(lo, hi)
    # middle 2+13 = 1 is not the least of 1+23 = 0 and 3+12 = 0
    assert got == Violation("positive-incidence", 0, (1, 2, 3), terms(1, 0, 0))
    assert got == check_positive_incidence_fraction(lo, hi)


# ---------------------------------------------------------------------------
# length-windowed Bruhat intervals


@pytest.mark.parametrize("n", [3, 4])
def test_bruhat_interval_matches_the_full_scan_on_every_pair(n):
    verts = permutohedron_vertices(n)
    sizes = set()
    for lo, hi in product(verts, repeat=2):
        got = bruhat_interval(lo, hi, n)
        assert got == bruhat_interval_full_scan(lo, hi, n), (lo, hi)
        sizes.add(len(got))
        if lo == hi:
            assert got == [lo]
        if not bruhat_leq(lo, hi):
            assert got == []
    assert 0 in sizes and len(verts) in sizes


def test_bruhat_interval_matches_the_full_scan_on_seeded_pairs_at_n5():
    rng = random.Random("bruhat-window/5")
    verts = permutohedron_vertices(5)
    pairs = [(v, v) for v in rng.sample(verts, 5)]
    pairs += [(verts[-1], verts[0]), (verts[0], verts[-1])]
    pairs += [tuple(rng.sample(verts, 2)) for _ in range(200)]
    kinds = set()
    for lo, hi in pairs:
        got = bruhat_interval(lo, hi, 5)
        assert got == bruhat_interval_full_scan(lo, hi, 5), (lo, hi)
        kinds.add("equal" if lo == hi else "below" if got else "not below")
    assert kinds == {"equal", "below", "not below"}


def test_bruhat_interval_tests_only_the_length_window():
    lengths = vertex_lengths(4)
    assert lengths is vertex_lengths(4)
    assert list(lengths) == permutohedron_vertices(4)
    assert all(k == inversions(v) for v, k in lengths.items())
    with pytest.raises(TypeError):
        lengths[(1, 2, 3, 4)] = 1
    # lo = 1324 and hi = 3142 have lengths 1 and 3: only the 5 vertices of
    # length 2 and the two ends go to bruhat_leq
    lo, hi = (1, 3, 2, 4), (3, 1, 4, 2)
    window = [v for v, k in lengths.items() if 1 < k < 3]
    assert len(window) == 5
    assert set(bruhat_interval(lo, hi, 4)) <= set(window) | {lo, hi}
    with pytest.raises(ValueError, match="length mismatch"):
        bruhat_interval((1, 2, 3), (1, 2, 3, 4), 4)


# ---------------------------------------------------------------------------
# shared exchange trees


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exchange_trees_span_each_level_along_one_value_swap(n):
    tree = _exchange_tree(n)
    assert len(tree) == n - 1
    identity = vertex_to_flag(tuple(range(1, n + 1)))
    for d, edges in enumerate(tree, start=1):
        # a spanning tree of the hypersimplex's edges, grown from the
        # identity's d-set: every edge reaches a new set from a known one
        reached, exchanges = [identity[d - 1]], set(hypersimplex_edges(d, n))
        for a, b, _, _ in edges:
            assert a in reached and b not in reached
            assert (min(a, b), max(a, b)) in exchanges
            reached.append(b)
        assert sorted(reached) == sorted(subsets_of_size(n, d))
        for a, b, v, u in edges:
            # u is v with the values n - d + 1 and n - d swapped, and the two
            # flags differ at level d only, from a to b
            assert u == tuple({n - d + 1: n - d, n - d: n - d + 1}.get(x, x) for x in v)
            fv, fu = vertex_to_flag(v), vertex_to_flag(u)
            assert (fv[d - 1], fu[d - 1]) == (a, b)
            assert fv[:d - 1] == fu[:d - 1] and fv[d:] == fu[d:]
            assert fv[d - 2:d - 1] in ((), (a & b,)) and fv[d:d + 1] == (a | b,)


def test_decompose_round_trip_leaves_the_shared_graphs_unchanged():
    rng = random.Random("shared-graphs")
    verts = permutohedron_vertices(4)
    for _ in range(3):
        # a linear height is the compression of a flag, so it round-trips
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        w = HeightFunction(4, {v: sum(c * x for c, x in zip(coeffs, v)) for v in verts})
        assert compress_on_vertices(decompose_height(w)) == w
    assert _exchange_tree(4) == _exchange_tree.__wrapped__(4)


# ---------------------------------------------------------------------------
# HeightFunction keys


def test_height_keys_equal_to_a_vertex_are_the_vertex():
    verts = permutohedron_vertices(3)
    by_tuple = HeightFunction(3, {v: k for k, v in enumerate(verts)})
    by_string = HeightFunction(3, {"".join(map(str, v)): k for k, v in enumerate(verts)})
    assert by_tuple == by_string
    # an equal tuple of other numbers is read as the vertex, as parsing does
    loose = HeightFunction(3, {tuple(float(x) for x in v): k for k, v in enumerate(verts)})
    assert all(type(x) is int for v in loose.heights for x in v)
    assert loose == by_tuple
    with pytest.raises(ValueError, match="does not match n=3"):
        HeightFunction(3, {(2, 1): 0})
    with pytest.raises(ValueError, match="not a permutation"):
        HeightFunction(3, {(1, 1, 3): 0})
    with pytest.raises(ValueError, match="does not match n=8"):
        HeightFunction(8, {(1, 2, 3): 0})


# ---------------------------------------------------------------------------
# nothing is built at import


def test_importing_the_package_builds_no_table():
    """perfbench's import line, in a fresh interpreter: every functools
    cache of a loaded valperm module is empty, so every per-shape table is
    built on first use and set-up pays for none of them."""
    code = (
        "import json, sys\n"
        "import valperm.cli, valperm.fans, valperm.subdivisions\n"
        "sizes = {f'{name}.{attr}': obj.cache_info().currsize\n"
        "         for name, module in sorted(sys.modules.items()) if name.startswith('valperm')\n"
        "         for attr, obj in vars(module).items()\n"
        "         if callable(obj) and hasattr(obj, 'cache_info')}\n"
        "print(json.dumps(sizes))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    sizes = json.loads(proc.stdout)
    # the caches named here are a floor, so a scan that finds none fails
    assert {"valperm.valuated._plucker_table", "valperm.valuated._incidence_table",
            "valperm.subdivisions._gap_table", "valperm.subdivisions._vertex_keys",
            "valperm.permutahedra.vertex_lengths", "valperm.subdivisions._exchange_tree",
            "valperm.polyhedra._affine_coordinates", "valperm.polyhedra._vertical_facets",
            "valperm.polyhedra._affine_dependencies"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size} == {}
