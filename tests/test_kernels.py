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

import pytest

from hopfforge import catalog, linalg
from hopfforge.hopf import antipode_eigenbasis
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
    columns = [{index[mm]: c for mm, c in H._antipode_monomial(m).items()}
               for m in monomials]
    coeffs = linalg.solve(columns, columns[-1])
    assert coeffs[-1] == 1 and all(type(c) is Fraction for c in coeffs)


def test_memo_tables_keep_integral_coefficients_as_int():
    H = catalog.build_b_lambda(Fraction(-2, 3))
    H.iterated_reduced_coproduct(H.gen("Z") * H.gen("Z"), 2)
    entries = [c for table in (H._coprod_mono, H._reduced_mono,
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


def test_extend_is_the_linear_extension():
    F = Fraction
    terms = {"a": F(1, 2), "b": F(-3)}
    maps = {
        "integral": {"a": {0: 2, 1: -1}, "b": {1: 4}},
        "fractional": {"a": {0: F(1, 3)}, "b": {0: F(-2, 5), 2: F(7, 2)}},
        "mixed": {"a": {0: 2, 1: F(1, 4)}, "b": {1: F(1, 6), 2: 3}},
    }
    for table in maps.values():
        out = linalg.extend(terms, table.__getitem__)
        expect: dict = {}
        for key, c in terms.items():
            for k, v in table[key].items():
                linalg.add_term(expect, k, c * v)
        assert out == expect
        assert _is_fraction_dict(out) and all(out.values())
    assert linalg.extend({}, maps["integral"].__getitem__) == {}
    # sums that cancel are dropped, whatever the type of the map values
    cancel = {"a": {0: 1, 1: F(1, 3)}, "b": {0: -2, 1: F(1, 2)}}
    out = linalg.extend({"a": F(2), "b": F(1)}, cancel.__getitem__)
    assert out == {1: F(7, 6)} and _is_fraction_dict(out)
    assert linalg.extend({"a": F(3), "b": F(2)},
                         {"a": {0: F(2, 3)}, "b": {0: -1}}.__getitem__) == {}
