"""The integer-numerator structure maps against their Fraction definitions.

B(-2/3) and B(1/2) have non-integral structure constants, so their memo
tables mix int and Fraction entries; E(2,-1,1,3) and U(heisenberg) are
integral.  Element coefficients are seeded rationals with denominators.
Characters, windings and generator automorphisms are checked against
their term-by-term definitions with seeded characters that kill the
relations: on B only X is nonzero, on E(a,b,l1,l2) X = 0 and
W = a*Z + l2*Y, on U(heisenberg) Z = 0.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge import catalog, linalg
from hopfforge.algebra import Element, Presentation
from hopfforge.hopf import PresentedHopfAlgebra, antipode_eigenbasis
from hopfforge.lantern import lantern
from hopfforge.nakayama import GeneratorAutomorphism, character, winding
from hopfforge.tensor import contract, tensor_multiply

from oracles import (antipode_by_fractions, apply_to_leg_by_fractions,
                     automorphism_by_products, character_by_powers,
                     contract_by_fractions, coproduct_by_fractions,
                     product_by_fractions, tensor_multiply_by_fractions,
                     winding_by_powers)
from suites import random_element

HOSTS = [
    pytest.param(lambda: catalog.build_b_lambda(Fraction(-2, 3)), id="B(-2/3)"),
    pytest.param(lambda: catalog.build_b_lambda(Fraction(1, 2)), id="B(1/2)"),
    pytest.param(lambda: catalog.build_e(2, -1, 1, 3), id="E(2,-1,1,3)"),
    pytest.param(lambda: catalog.build_enveloping_preset("heisenberg"),
                 id="U(heisenberg)"),
]

# generator values of a character on each host, from a draw of seeded
# rationals
CHARACTER_VALUES = {
    "B(-2/3)": lambda pick: {"X": pick()},
    "B(1/2)": lambda pick: {"X": pick()},
    "E(2,-1,1,3)": lambda pick: (lambda y, z: {
        "X": 0, "Y": y, "Z": z, "W": 2 * z + 3 * y})(pick(), pick()),
    "U(heisenberg)": lambda pick: {"X": pick(), "Y": pick(), "Z": 0},
}


def _pairs(H, seed, count=12):
    rng = random.Random(seed)
    pres = H.presentation
    return [(random_element(rng, pres, 3, 4, nonzero=True),
             random_element(rng, pres, 3, 4, nonzero=True))
            for _ in range(count)]


@pytest.mark.parametrize("make", HOSTS)
def test_kernels_match_fraction_definitions(make):
    H = make()
    for a, b in _pairs(H, 71):
        assert a * b == product_by_fractions(a, b)
        da, db = H.coproduct(a), H.coproduct(b)
        assert da == coproduct_by_fractions(H, a)
        assert tensor_multiply(da, db) == tensor_multiply_by_fractions(da, db)
        assert contract(da) == contract_by_fractions(da)
        assert H.antipode(a) == antipode_by_fractions(H, a)
        for leg in (1, 2):
            for f in (H.coproduct, H.antipode):
                assert da.apply_to_leg(leg, f) == \
                    apply_to_leg_by_fractions(da, leg, f)


@pytest.mark.parametrize("make", HOSTS)
def test_monomial_maps_match_term_by_term_definitions(make):
    H = make()
    pres = H.presentation
    rng = random.Random(73)
    pick = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.choice((1, 2, 3)))
    chi = character(H, CHARACTER_VALUES[H.name](pick))
    assert chi.report.passed and not chi.is_counit()
    phi = GeneratorAutomorphism(H, {
        i: random_element(rng, pres, 2, 2, nonzero=True)
        for i in range(pres.ngens)})
    for a, b in _pairs(H, 74, count=6):
        for x in (a, b, a * b):
            value = chi(x)
            assert value == character_by_powers(chi, x)
            assert type(value) is Fraction
            for side in ("left", "right"):
                wound = winding(chi, x, side)
                assert wound == winding_by_powers(chi, x, side)
                assert _is_fraction_dict(wound.terms)
        for x in (a, b):
            image = phi.apply(x)
            assert image == automorphism_by_products(phi, x)
            assert _is_fraction_dict(image.terms)


def test_apply_to_leg_calls_its_map_once_per_leg_monomial():
    H = catalog.build_b_lambda(Fraction(1, 2))
    X, Y, Z = (H.gen(g) for g in "XYZ")
    t = H.coproduct(Z * Z * X + Fraction(2, 3) * Y * Z - X * Y)
    firsts = {m1 for m1, _ in t.terms}
    assert len(firsts) < len(t.terms)
    for f in (H.antipode, H.coproduct):
        calls = []
        out = t.apply_to_leg(1, lambda x: calls.append(x) or f(x))
        assert len(calls) == len(firsts)
        assert {m for x in calls for m in x.terms} == firsts
        assert out == apply_to_leg_by_fractions(t, 1, f)


def _is_fraction_dict(terms) -> bool:
    return all(type(c) is Fraction for c in terms.values())


@pytest.mark.parametrize("make", HOSTS)
def test_public_coefficients_are_fractions(make):
    H = make()
    pres = H.presentation
    for a, b in _pairs(H, 72, count=4):
        da = H.coproduct(a)
        x = a - H.scalar(H.counit(a))
        elements = [a * b, H.antipode(a), contract(da),
                    H.antipode_inverse(H.antipode(a))]
        tensors = [da, tensor_multiply(da, H.coproduct(b)),
                   da.apply_to_leg(1, H.coproduct), da.apply_to_leg(2, H.antipode),
                   H.reduced_coproduct(x), H.iterated_reduced_coproduct(x, 2)]
        assert all(_is_fraction_dict(e.terms) for e in elements)
        assert all(_is_fraction_dict(t.terms) for t in tensors)
    # read straight off memo tables: the certificate's lantern, the
    # solvers over antipode and coproduct images
    assert all(_is_fraction_dict(table)
               for table in lantern(H).brackets.values())
    assert all(_is_fraction_dict(b.terms) for b in H.primitive_basis(3))
    assert all(_is_fraction_dict(b.terms)
               for b, _ in antipode_eigenbasis(H, 3))
    monomials = pres.monomials_up_to(2)
    index = {m: i for i, m in enumerate(monomials)}
    columns = [{index[mm]: c for mm, c in H._antipode.monomial(m).items()}
               for m in monomials]
    coeffs = linalg.LinearSolver(columns).solve(columns[-1])
    assert coeffs[-1] == 1 and all(type(c) is Fraction for c in coeffs)


def test_memo_tables_keep_integral_coefficients_as_int():
    H = catalog.build_b_lambda(Fraction(-2, 3))
    H.iterated_reduced_coproduct(H.gen("Z") * H.gen("Z"), 2)
    entries = [c for table in (H._coprod_mono,
                               H._reduced_iter, H._antipode_mono,
                               H.presentation._prod_cache)
               for terms in table.values() for c in terms.values()]
    assert any(type(c) is int for c in entries)
    assert any(type(c) is Fraction for c in entries)
    assert all(type(c) is int or c.denominator != 1 for c in entries)
    assert all(c for c in entries)


def test_split_join_round_trip():
    terms = {0: Fraction(1, 2), 1: Fraction(-2, 3), 2: 5}
    nums, den = linalg.split(terms)
    assert den == 6 and nums == {0: 3, 1: -4, 2: 30}
    assert all(type(n) is int for n in nums.values())
    linalg.accumulate(nums, {0: 1, 3: Fraction(1, 2)}, -3)
    assert linalg.join(nums, den) == {1: Fraction(-2, 3), 2: 5,
                                      3: Fraction(-1, 4)}
    assert linalg.compact({0: Fraction(4, 2), 1: Fraction(1, 2), 2: 0}) \
        == {0: 2, 1: Fraction(1, 2)}


def _extend(terms, mono_map):
    return linalg.join(*linalg.extend_scaled(*linalg.split(terms), mono_map))


def test_extend_is_the_linear_extension():
    F = Fraction
    terms = {"a": F(1, 2), "b": F(-3)}
    maps = {
        "integral": {"a": {0: 2, 1: -1}, "b": {1: 4}},
        "fractional": {"a": {0: F(1, 3)}, "b": {0: F(-2, 5), 2: F(7, 2)}},
        "mixed": {"a": {0: 2, 1: F(1, 4)}, "b": {1: F(1, 6), 2: 3}},
    }
    for table in maps.values():
        out = _extend(terms, table.__getitem__)
        expect: dict = {}
        for key, c in terms.items():
            for k, v in table[key].items():
                linalg.add_term(expect, k, c * v)
        assert out == expect
        assert _is_fraction_dict(out) and all(out.values())
    assert _extend({}, maps["integral"].__getitem__) == {}
    # sums that cancel are dropped, whatever the type of the map values
    cancel = {"a": {0: 1, 1: F(1, 3)}, "b": {0: -2, 1: F(1, 2)}}
    out = _extend({"a": F(2), "b": F(1)}, cancel.__getitem__)
    assert out == {1: F(7, 6)} and _is_fraction_dict(out)
    assert _extend({"a": F(3), "b": F(2)},
                   {"a": {0: F(2, 3)}, "b": {0: -1}}.__getitem__) == {}


# -- scaled form --------------------------------------------------------------

_PRES = Presentation([("X", 1), ("Y", 1)], {(1, 0): {(0, 1): -1}})
_MONOS = _PRES.monomials_up_to(2)
_terms = st.dictionaries(
    st.sampled_from(_MONOS),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    max_size=4).map(lambda d: {m: c for m, c in d.items() if c})


def _overscaled(terms, k):
    """The element of terms as numerators over a denominator k times too
    large, so two equal elements may carry different denominators."""
    nums, den = linalg.split(terms)
    return Element.from_scaled(_PRES, {m: n * k for m, n in nums.items()},
                               den * k)


@settings(max_examples=200, deadline=None)
@given(_terms, _terms, st.integers(1, 6), st.integers(1, 6))
def test_scaled_equality_agrees_with_fraction_equality(a, b, ka, kb):
    x, y = _overscaled(a, ka), _overscaled(b, kb)
    assert (x == y) == (a == b)
    assert (x == _overscaled(a, kb)) and (Element(_PRES, dict(a)) == x)
    assert linalg.scaled_equal(x.scaled, y.scaled) == (a == b)
    # sums that cancel
    assert bool(x - y) == (a != b)
    assert ((x - y) == 0) == (a == b)
    assert (x + y) - y == x and (x + y - x).terms == b
    assert x * y - y * x == x * y + (-1) * (y * x)


def _scaled_ok(x) -> bool:
    """x carries int numerators with no zero over a positive denominator
    sharing no factor with all of them, and terms is their Fraction view."""
    nums, den = x.scaled
    return (type(den) is int and den > 0
            and all(type(n) is int and n for n in nums.values())
            and gcd(den, *nums.values()) == 1
            and _is_fraction_dict(x.terms) and all(x.terms.values())
            and x.terms == {k: Fraction(n, den) for k, n in nums.items()})


@pytest.mark.parametrize("make", HOSTS)
def test_terms_are_a_fraction_view_after_every_kernel(make):
    H = make()
    pres = H.presentation
    rng = random.Random(75)
    pick = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.choice((1, 2, 3)))
    chi = character(H, CHARACTER_VALUES[H.name](pick))
    phi = GeneratorAutomorphism(H, {
        i: random_element(rng, pres, 2, 2, nonzero=True)
        for i in range(pres.ngens)})
    for a, b in _pairs(H, 76, count=4):
        da, db = H.coproduct(a), H.coproduct(b)
        x = a - H.scalar(H.counit(a))
        results = [a * b, a + b, a - a, -a, a * Fraction(-3, 4), a ** 2,
                   H.antipode(a), contract(da), phi.apply(a),
                   winding(chi, a, "left"), winding(chi, a, "right"),
                   da, da + db, da - da, -da, da.scale(Fraction(2, 9)),
                   tensor_multiply(da, db), da.apply_to_leg(1, H.coproduct),
                   da.apply_to_leg(2, H.antipode), H.reduced_coproduct(x),
                   H.iterated_reduced_coproduct(x, 2)]
        assert all(_scaled_ok(r) for r in results)


def test_comparing_kernel_results_builds_no_fraction_view(monkeypatch):
    H = catalog.build_b_lambda(Fraction(1, 2))
    a, b = _pairs(H, 77, count=1)[0]
    results = [(H.coproduct(a * b),
                tensor_multiply(H.coproduct(a), H.coproduct(b))),
               (contract(H.coproduct(a).apply_to_leg(1, H.antipode)),
                H.scalar(H.counit(a))),
               (H.antipode(H.antipode(a)) - a, H.antipode(a * 0))]
    monkeypatch.setattr(linalg, "join", _no_fraction_view)
    assert [x == y for x, y in results] == [True, True, False]
    assert [x != y for x, y in results] == [False, False, True]


def _no_fraction_view(nums, den):
    raise AssertionError("a Fraction view was built")


@pytest.mark.parametrize("make", HOSTS)
def test_host_winding_builds_no_coproduct(make, monkeypatch):
    H = make()
    rng = random.Random(78)
    pick = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.choice((1, 2, 3)))
    chi = character(H, CHARACTER_VALUES[H.name](pick))
    calls = []
    coproduct = PresentedHopfAlgebra.coproduct
    monkeypatch.setattr(PresentedHopfAlgebra, "coproduct",
                        lambda self, x: calls.append(x) or coproduct(self, x))
    for a, b in _pairs(H, 79, count=4):
        for x in (a, b, a * b):
            for side in ("left", "right"):
                del calls[:]
                wound = winding(chi, x, side)
                assert not calls
                assert wound == winding_by_powers(chi, x, side)
