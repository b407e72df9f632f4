"""The integer-numerator structure maps against their Fraction definitions.

Memo tables hold scaled pairs (int numerators, denominator), and
tensor-valued ones, like every TensorElement, key a term by one packed
int of leg monomial ids; B(-2/3) and B(1/2) have non-integral structure
constants, so some of their entries have a denominator above 1, and
every kernel brings the values it reads to one common denominator
before its int loop; E(2,-1,1,3) and U(heisenberg) are integral.  O(U_5) has ten generators.  Element
coefficients are seeded rationals with denominators.
Characters, windings and generator automorphisms are checked against
their term-by-term definitions with seeded characters that kill the
relations: on B only X is nonzero, on E(a,b,l1,l2) X = 0 and
W = a*Z + l2*Y, on U(heisenberg) Z = 0.
"""

import ast
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge import algebra, catalog, linalg
from hopfforge.algebra import Element, GeneratorMap, Presentation
from hopfforge.grading import certify
from hopfforge.linalg import vec_add_scaled
from hopfforge.hopf import PresentedHopfAlgebra
from hopfforge.lantern import lantern
from hopfforge.nakayama import GeneratorAutomorphism, character, winding
from hopfforge.tensor import (TensorElement, contract, tensor_multiply,
                              tensor_product, unpack)

from oracles import (antipode_by_fractions, antipode_eigenbasis,
                     antipode_inverse_by_solving,
                     apply_to_leg_by_fractions,
                     automorphism_by_products, character_by_powers,
                     contract_by_fractions, coproduct_by_fractions,
                     monomials_up_to, primitive_basis, product_by_fractions,
                     tensor_multiply_by_fractions, tensor_multiply_by_tables,
                     winding_by_powers)
from suites import random_element
from test_grading import _unitriangular

HOSTS = [
    pytest.param(lambda: catalog.build_b_lambda(Fraction(-2, 3)), id="B(-2/3)"),
    pytest.param(lambda: catalog.build_b_lambda(Fraction(1, 2)), id="B(1/2)"),
    pytest.param(lambda: catalog.build_e(2, -1, 1, 3), id="E(2,-1,1,3)"),
    pytest.param(lambda: catalog.build_enveloping_preset("heisenberg"),
                 id="U(heisenberg)"),
]



def _unitriangular_5():
    H = _unitriangular(5)
    assert certify(H, 4).passed
    return H


# the four hosts above and O(U_5), ten generators
KERNEL_HOSTS = HOSTS + [pytest.param(_unitriangular_5, id="O(U_5)")]

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
    assert chi.report.passed and any(chi.values.values())
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
            image = phi(x)
            assert image == automorphism_by_products(phi, x)
            assert _is_fraction_dict(image.terms)


def _iterated(H, x, arity):
    """The iterated coproduct of x with the given number of legs (arity 1
    is x itself, as a tensor)."""
    if arity == 1:
        return tensor_product(x)
    t = H.coproduct(x)
    for leg in range(1, arity - 1):
        t = t.apply_to_leg(leg, H.coproduct)
    return t


@pytest.mark.parametrize("make", KERNEL_HOSTS)
def test_tensor_multiply_matches_fractions_at_every_arity(make):
    H = make()
    pres = H.presentation
    for a, b in _pairs(H, 80, count=3):
        for arity in (1, 2, 3):
            s, t = _iterated(H, a, arity), _iterated(H, b, arity)
            product = tensor_multiply(s, t)
            assert product == tensor_multiply_by_fractions(s, t)
            assert product == _iterated(H, a * b, arity)
            zero = TensorElement(pres, arity, {})
            assert not tensor_multiply(s, zero)
            assert not tensor_multiply(zero, t)
            assert tensor_multiply(zero, s).arity == arity


# every builtin host, and the two of HOSTS the CLI does not name
TABLE_HOSTS = HOSTS[:3] + [
    *[pytest.param(lambda lam=lam: catalog.build_b_lambda(lam), id=f"B:{lam}")
      for lam in ("0", "1", "-2", "1/2")],
    pytest.param(catalog.build_e, id="E"),
    *[pytest.param(lambda p=p: catalog.build_enveloping_preset(p), id=f"U:{p}")
      for p in catalog.ENVELOPING_PRESETS],
]


@pytest.mark.parametrize("make", TABLE_HOSTS)
def test_tensor_multiply_matches_the_table_algorithm(make):
    H = make()
    pres = H.presentation
    for a, b in _pairs(H, 83, count=4):
        for arity in (1, 2, 3):
            s, t = _iterated(H, a, arity), _iterated(H, b, arity)
            zero = TensorElement(pres, arity, {})
            for x, y in ((s, t), (t, s), (s, s), (s, zero), (zero, t),
                         (zero, zero)):
                expect = tensor_multiply_by_tables(x, y)
                product = tensor_multiply(x, y)
                assert product == expect and _scaled_ok(product)
                # the second call reads every leg product from the memo
                assert tensor_multiply(x, y) == expect


def test_tensor_products_interleaved_over_two_presentations():
    # the same generators and monomials, other products: each
    # presentation keeps its own memo, which element products, tensor
    # products and contractions all read
    hosts = [catalog.build_b_lambda(lam)
             for lam in (Fraction(1, 2), Fraction(-2, 3))]
    operands = [[(a, b, H.coproduct(a), H.coproduct(b))
                 for a, b in _pairs(H, 84)] for H in hosts]
    for _ in range(2):
        for pairs in zip(*operands):
            for a, b, s, t in pairs:
                assert a * b == product_by_fractions(a, b)
                assert tensor_multiply(s, t) == tensor_multiply_by_tables(s, t)
                assert contract(t) == contract_by_fractions(t)
    first, second = (H.presentation.id_products for H in hosts)
    assert first is not second and first and second
    with pytest.raises(algebra.PresentationMismatchError):
        tensor_multiply(operands[0][0][2], operands[1][0][3])
    with pytest.raises(algebra.PresentationMismatchError):
        operands[0][0][0] * operands[1][0][1]


@pytest.mark.parametrize("make", KERNEL_HOSTS)
def test_apply_to_leg_matches_fractions_on_every_leg(make):
    H = make()
    for a, _ in _pairs(H, 81, count=2):
        t = _iterated(H, a, 3)
        for leg in (1, 2, 3):
            for f in (H.coproduct, H.antipode):
                out = t.apply_to_leg(leg, f)
                assert out == apply_to_leg_by_fractions(t, leg, f)
                assert out.arity == (4 if f == H.coproduct else 3)


def test_tensor_multiply_looks_up_each_leg_product_once(monkeypatch):
    """Over a sequence of products on one presentation -- element products,
    tensor products and contractions, interleaved -- each distinct pair of
    leg monomials reaches product_terms at most once: the one product memo
    on mono ids (Presentation.id_products) keeps it for every later call."""
    H = catalog._b_lambda.__wrapped__(Fraction(1, 2), 6)  # not the cached one
    pres = H.presentation
    pairs = _pairs(H, 82, count=3)
    operands = [pair for a, b in pairs for pair in [(a, b)] + [
        (_iterated(H, a, arity), _iterated(H, b, arity)) for arity in (1, 2, 3)]]
    calls = []
    product_terms = pres.product_terms
    monkeypatch.setattr(pres, "product_terms",
                        lambda m1, m2: calls.append((m1, m2))
                        or product_terms(m1, m2))
    needed = set()
    for s, t in operands + operands:
        for x, y in ((s, t), (t, s), (s, s)):
            x * y
            if isinstance(x, Element):
                needed |= {(m1, m2) for m1 in x.terms for m2 in y.terms}
                continue
            needed |= {(k1[pos], k2[pos]) for k1 in x.terms
                       for k2 in y.terms for pos in range(x.arity)}
            if x.arity == 2:
                contract(x)
                needed |= set(x.terms)
    assert calls and set(calls) <= needed
    assert max(Counter(calls).values()) == 1
    ids = pres.mono_id
    assert all(ids(m1) << algebra.MONO_ID_BITS | ids(m2) in pres.id_products
               for m1, m2 in needed)


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


_LEG_DENS = (2, 3, 5)  # pairwise coprime: the running lcm grows per image


def _leg_piece(pres, arity, mono, coeff):
    """coeff * mono as an Element (arity 1), else coeff * mono@...@mono."""
    if arity == 1:
        return pres.element({mono: coeff})
    return TensorElement(pres, arity, {(mono,) * arity: coeff})


def _leg_map(table, zero):
    """The linear map with the values table[m] on monomials m."""
    def f(x):
        out = zero
        for m, c in x.terms.items():
            out = out + table[m].scale(c)
        return out
    return f


@pytest.mark.parametrize("seed", range(6))
def test_apply_to_leg_sums_images_over_a_running_lcm(seed):
    """Images over 2, 3 and 5, summed in one pass: their w-terms cancel on
    the keys of rest r0, and one map cancels the whole tensor."""
    rng = random.Random(96 + seed)
    pres = _KEY_PRES
    arity = rng.randint(1, 3)
    leg = rng.randint(1, arity)
    legs = rng.sample(_KEY_MONOS, 3)
    r0, r1 = ([rng.choice(_KEY_MONOS) for _ in range(arity - 1)]
              for _ in range(2))
    key = lambda m, rest, n=1: tuple(rest[:leg - 1] + [m] * n + rest[leg - 1:])
    g = Fraction(rng.choice((1, -2)), rng.choice((1, 7)))
    terms = {key(m, r0): c * g for m, c in zip(legs, (2, 3, -10))}
    cancelling = TensorElement(pres, arity, dict(terms))
    if r1 != r0:
        terms.update({key(m, r1): Fraction(rng.choice((-3, 1, 2)),
                                           rng.choice((1, 7))) for m in legs})
    t = TensorElement(pres, arity, terms)
    u, v, w = rng.sample(_KEY_MONOS, 3)
    a = rng.choice((1, -1, 7))
    for out in (1, 2):
        zero = pres.zero() if out == 1 else TensorElement(pres, out, {})
        piece = lambda mono, c: _leg_piece(pres, out, mono, c)
        table = {legs[0]: piece(u, Fraction(1, 2)) + piece(w, Fraction(a, 2)),
                 legs[1]: piece(v, Fraction(1, 3)) + piece(w, Fraction(-a, 3)),
                 legs[2]: piece(u, Fraction(2, 5)) + piece(v, Fraction(-1, 5))}
        assert [table[m].scaled[1] for m in legs] == list(_LEG_DENS)
        f = _leg_map(table, zero)
        result = t.apply_to_leg(leg, f)
        assert result.arity == arity + out - 1 and _scaled_ok(result)
        assert result == apply_to_leg_by_fractions(t, leg, f)
        # 2g * a/2 + 3g * (-a/3) = 0 at w (x) rest r0
        assert key(w, r0, out) not in result.terms and result
        # 2g/2 + 3g/3 - 10g/5 = 0 on every key
        whole = _leg_map({m: piece(u, Fraction(1, d))
                          for m, d in zip(legs, _LEG_DENS)}, zero)
        gone = cancelling.apply_to_leg(leg, whole)
        assert not gone and gone.arity == arity + out - 1 and _scaled_ok(gone)
        assert gone == apply_to_leg_by_fractions(cancelling, leg, whole)


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
    assert all(_is_fraction_dict(b.terms) for b in primitive_basis(H))
    assert all(_is_fraction_dict(b.terms)
               for b, _ in antipode_eigenbasis(H, 3))
    monomials = monomials_up_to(pres, 2)
    index = {m: i for i, m in enumerate(monomials)}
    columns = [{index[mm]: c for mm, c in
                H.antipode(pres.monomial(m)).terms.items()}
               for m in monomials]
    coeffs = linalg.LinearSolver(columns).solve(columns[-1])
    assert coeffs[-1] == 1 and all(type(c) is Fraction for c in coeffs)


def _is_scaled_pair(value) -> bool:
    """A pair (int numerators with no zero, int denominator >= 1), in
    lowest terms."""
    if type(value) is not tuple or len(value) != 2:
        return False
    nums, den = value
    return (type(nums) is dict and type(den) is int and den >= 1
            and all(type(n) is int and n for n in nums.values())
            and gcd(den, *nums.values()) == 1)


@pytest.mark.parametrize("lam", [Fraction(-2, 3), Fraction(1, 2)],
                         ids=["B(-2/3)", "B(1/2)"])
def test_memo_tables_hold_scaled_pairs(lam):
    H = catalog.build_b_lambda(lam)
    pres = H.presentation
    X, Y, Z = (H.gen(g) for g in "XYZ")
    x = Z * Z * Y + Fraction(1, 3) * Z * X
    H.iterated_reduced_coproduct(x, 2)
    H.antipode(x)
    chi = character(H, {"X": Fraction(-3, 2)})
    for side in ("left", "right"):
        winding(chi, x, side)
    phi = GeneratorAutomorphism(H, {"X": X + Fraction(1, 2) * Y, "Y": Y,
                                    "Z": Z + Fraction(1, 5) * Y})
    phi(x * x)
    tables = [H._coprod_mono, H._reduced_iter, H._antipode_mono,
              pres._prod_cache, chi._windings["left"].memo,
              chi._windings["right"].memo, phi.memo]
    assert all(tables)
    entries = [v for table in tables for v in table.values()]
    assert all(_is_scaled_pair(v) for v in entries)
    assert any(den > 1 for _, den in entries)
    # each entry is the Fraction image the map defines
    mono = max(pres.monomials_of_weight(4), key=pres.monomial_key)
    assert H.coproduct(pres.monomial(mono)).terms == \
        coproduct_by_fractions(H, pres.monomial(mono)).terms
    assert phi(pres.monomial(mono)).terms == \
        automorphism_by_products(phi, pres.monomial(mono)).terms


def test_extend_scaled_brings_unequal_denominators_together():
    for seed in range(20):
        rng = random.Random(seed)

        def draw():
            return {k: c for k in rng.sample(range(5), rng.randint(0, 3))
                    if (c := Fraction(rng.randint(-6, 6),
                                      rng.choice((1, 2, 3, 4, 9))))}
        terms = draw()
        table = {k: linalg.split(draw()) for k in range(5)}
        expect: dict = {}
        for key, c in terms.items():
            vec_add_scaled(expect, linalg.join(*table[key]), c)
        nums, den = linalg.extend_scaled(*linalg.split(terms),
                                         table.__getitem__)
        assert _is_scaled_pair((nums, den))
        assert linalg.join(nums, den) == expect
    assert len({d for _, d in table.values()}) > 1


def test_split_join_round_trip():
    terms = {0: Fraction(1, 2), 1: Fraction(-2, 3), 2: 5}
    nums, den = linalg.split(terms)
    assert den == 6 and nums == {0: 3, 1: -4, 2: 30}
    assert all(type(n) is int for n in nums.values())
    nums, den = linalg.combine([(1, (nums, 1)), (-3, ({0: 2, 3: 1}, 2))], den)
    assert linalg.join(nums, den) == {1: Fraction(-2, 3), 2: 5,
                                      3: Fraction(-1, 4)}
    # the memo form: zeros dropped, lowest terms, ints only
    assert linalg.split({0: Fraction(4, 2), 1: Fraction(1, 2)}) \
        == ({0: 4, 1: 1}, 2)
    assert linalg.rescale({0: 8, 1: 2, 2: 0}, 4) == ({0: 4, 1: 1}, 2)
    assert linalg.rescale({0: 4, 1: -2, 2: 0}, 2) == ({0: 2, 1: -1}, 1)
    assert linalg.rescale({0: 0}, 6) == ({}, 1)


def test_extend_scaled_returns_a_lone_monomial_s_memo_entry():
    """One key with numerator 1 over 1 maps to the memo's pair itself, which
    is the Fraction image; any other input is summed anew."""
    memo = {7: ({1: 3, 2: -1}, 4), 8: ({1: 1}, 2)}
    entry = linalg.extend_scaled({7: 1}, 1, memo.__getitem__)
    assert entry is memo[7]
    assert linalg.join(*entry) == _extend({7: 1}, lambda k: linalg.join(*memo[k]))
    for nums, den in (({7: 2}, 1), ({7: 1}, 3), ({7: 1, 8: -2}, 1)):
        out = linalg.extend_scaled(nums, den, memo.__getitem__)
        assert out is not memo[7] and _is_scaled_pair(out)
        assert linalg.join(*out) == _extend(
            linalg.join(nums, den), lambda k: linalg.join(*memo[k]))
    H = catalog.build_b_lambda(Fraction(1, 2))
    pres = H.presentation
    for m in pres.monomials_of_weight(3):
        x = pres.monomial(m)
        assert H.antipode(x).scaled[0] is H._antipode.memo[pres.mono_id(m)][0]
        assert H.antipode(x) == antipode_by_fractions(H, x)
        assert H.coproduct(x).scaled[0] is H._coproduct.memo[pres.mono_id(m)][0]
        assert H.coproduct(x) == coproduct_by_fractions(H, x)


def _extend(terms, mono_map):
    """extend_scaled on the scaled forms of terms and of the map values."""
    return linalg.join(*linalg.extend_scaled(
        *linalg.split(terms), lambda key: linalg.split(mono_map(key))))


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
_MONOS = monomials_up_to(_PRES, 2)
_terms = st.dictionaries(
    st.sampled_from(_MONOS),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    max_size=4).map(lambda d: {m: c for m, c in d.items() if c})


def _overscaled(terms, k):
    """The element of terms as numerators over a denominator k times too
    large, so two equal elements may carry different denominators."""
    nums, den = Element(_PRES, dict(terms)).scaled
    return Element.from_scaled(_PRES, {i: n * k for i, n in nums.items()},
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
            and x.terms == {_public_key(x, k): Fraction(n, den)
                            for k, n in nums.items()})


def _public_key(x, key):
    """The key of x's terms view for a key of its scaled form."""
    if isinstance(x, TensorElement):
        return unpack(x.algebra, x.arity, key)
    return x.algebra.monos[key]


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
                   H.antipode(a), contract(da), phi(a),
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


@pytest.mark.parametrize("make", HOSTS)
def test_host_winding_is_a_generator_map(make, monkeypatch):
    # (chi@id)Delta is an algebra map: the first winding per side runs the
    # cofactor loop once per generator, and no later one runs it
    H = make()
    rng = random.Random(80)
    pick = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.choice((1, 2, 3)))
    chi = character(H, CHARACTER_VALUES[H.name](pick))
    calls = []
    cofactors = TensorElement.leg_cofactors
    monkeypatch.setattr(
        TensorElement, "leg_cofactors",
        lambda self, leg: calls.append(leg) or cofactors(self, leg))
    for side in ("left", "right"):
        for n, (a, b) in enumerate(_pairs(H, 81, count=3)):
            del calls[:]
            xs = (a, b, a * b)
            wound = [winding(chi, x, side) for x in xs]
            assert len(calls) == (0 if n else H.presentation.ngens)
            assert wound == [winding_by_powers(chi, x, side) for x in xs]
        assert isinstance(chi._windings[side], GeneratorMap)
        assert not chi._windings[side].anti


@pytest.mark.parametrize("make", KERNEL_HOSTS)
def test_antipode_inverse_is_an_anti_generator_map(make, monkeypatch,
                                                  count_calls):
    # S^-1 is an anti-algebra map whose generator images come from the
    # recursion that defines the antipode of H^cop: no call applies S or
    # S^2, the first one, which fills the images, included
    H = make()
    rng = random.Random(86)
    xs = [random_element(rng, H.presentation, w, 4, nonzero=True)
          for w in range(1, 7)]
    images = [H.antipode(x) for x in xs]
    monkeypatch.setattr(H, "_antipode_inverse", None)  # filled below
    calls = (count_calls(PresentedHopfAlgebra, "antipode"),
             count_calls(PresentedHopfAlgebra, "s_squared"))
    assert [H.antipode_inverse(s) for s in images] == xs
    assert calls == ([], [])
    assert isinstance(H._antipode_inverse, GeneratorMap)
    assert H._antipode_inverse.anti


# -- static guard -------------------------------------------------------------

_SRC = Path(__file__).parent.parent / "src" / "hopfforge"
_TENSOR_KERNELS = ("tensor_multiply", "contract", "apply_to_leg", "_legs")
# names that build or convert to Fractions, and the constructors that
# split a Fraction dict
_FRACTION_NAMES = {"Fraction", "ONE", "ZERO", "as_fraction", "split", "join"}
_FRACTION_CONSTRUCTORS = {"Element", "TensorElement"}


def test_structure_map_kernels_stay_on_ints():
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted(_SRC.glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), 1)
                 if "compact(" in line]
    kernels = {node.name: node for node in ast.walk(
        ast.parse((_SRC / "tensor.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in _TENSOR_KERNELS}
    assert set(kernels) == set(_TENSOR_KERNELS)
    for name, fn in kernels.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in _FRACTION_NAMES:
                offenders.append(f"tensor.{name}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr == "terms":
                offenders.append(f"tensor.{name}: .terms")
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) in _FRACTION_CONSTRUCTORS:
                offenders.append(f"tensor.{name}: {node.func.id}(...)")
    # one algorithm for every arity: tensor_multiply does not branch
    offenders += [f"tensor.tensor_multiply: {type(node).__name__}"
                  for node in ast.walk(kernels["tensor_multiply"])
                  if isinstance(node, (ast.If, ast.IfExp, ast.Compare,
                                       ast.Match))]
    assert not offenders, "structure-map kernels must run on ints:\n" + \
        "\n".join(offenders)


# -- packed tensor keys -------------------------------------------------------

_KEY_PRES = Presentation([("X", 1), ("Y", 1), ("Z", 2)],
                         {(1, 0): {(0, 0, 1): 1}})
_KEY_MONOS = monomials_up_to(_KEY_PRES, 3)


@st.composite
def _tensor_terms(draw):
    """An arity 1-4 and a {tuple of monomials: nonzero Fraction} dict."""
    arity = draw(st.integers(1, 4))
    keys = st.tuples(*[st.sampled_from(_KEY_MONOS)] * arity)
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                       st.integers(1, 6))
    return arity, draw(st.dictionaries(keys, coeffs, max_size=6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_tensor_terms(), st.randoms(use_true_random=False))
def test_packed_keys_round_trip(drawn, rng):
    arity, terms = drawn
    t = TensorElement(_KEY_PRES, arity, terms)
    assert t.terms == terms
    # the view rebuilt from the packed scaled form alone
    assert TensorElement.from_scaled(_KEY_PRES, arity, *t.scaled).terms == terms
    assert all(type(k) is int for k in t.scaled[0])
    # the same terms listed in another order give an equal tensor
    items = list(terms.items())
    rng.shuffle(items)
    shuffled = TensorElement(_KEY_PRES, arity, dict(reversed(items)))
    assert shuffled == t and shuffled.scaled[0] == t.scaled[0]
    assert TensorElement.from_terms(_KEY_PRES, arity, dict(items)) == t


def test_mono_id_refuses_an_id_past_the_leg_width(monkeypatch):
    from hopfforge import tensor
    assert tensor.LEG_BITS == algebra.MONO_ID_BITS == 32
    pres = Presentation([("X", 1)])
    assert [pres.mono_id((e,)) for e in (2, 0, 2)] == [0, 1, 0]
    # at a width of 2 bits ids 0..3 fit and the fifth monomial is refused
    monkeypatch.setattr(algebra, "MONO_ID_BITS", 2)
    assert [pres.mono_id((e,)) for e in (1, 3)] == [2, 3]
    with pytest.raises(OverflowError, match="more than 2"):
        pres.mono_id((4,))
    assert pres.monos == [(2,), (0,), (1,), (3,)]
    assert pres.mono_id((3,)) == 3


@pytest.mark.parametrize("make", KERNEL_HOSTS)
def test_antipode_inverse_matches_the_solver(make):
    H = make()
    pres = H.presentation
    rng = random.Random(84)
    for w in range(7):
        for _ in range(2):
            x = random_element(rng, pres, w, 4, nonzero=True)
            y = H.antipode_inverse(x)
            assert y == antipode_inverse_by_solving(H, x)
            assert H.antipode(y) == x


# names bound to tensor keys, and the tensor-valued memo tables and maps
_KEY_NAMES = {"key", "tkey"}
_TENSOR_MEMOS = ("_coproduct", "_coprod_mono", "_reduced_iter",
                 "_reduced_iterate_monomial")


def _tuple_key_reads(source: str) -> list[str]:
    """Lines that index or slice a tensor key, or join a tensor memo."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and getattr(
                node.value, "id", None) in _KEY_NAMES:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "join"
              and any(name in ast.unparse(arg) for arg in node.args
                      for name in _TENSOR_MEMOS)):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_tensor_key_guard_flags_tuple_reads():
    assert _tuple_key_reads("head = f(tkey[0])\nrest = tkey[1:]")
    assert _tuple_key_reads("out = key[keep]")
    assert _tuple_key_reads("t = linalg.join(*H._coproduct.monomial(m))")
    assert _tuple_key_reads("t = join(*H._reduced_iterate_monomial(m, 1))")
    assert not _tuple_key_reads("leg = key >> LEG_BITS & LEG_MASK")
    assert not _tuple_key_reads("x = linalg.join(*H._antipode.monomial(m))")


# the packed-key layout and the monomial numbering it packs
_KEY_LAYOUT = ("LEG_BITS", "LEG_MASK", ".monos[", "mono_id(")


def test_tensor_keys_are_read_only_in_tensor():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(_SRC.glob("*.py")) if path.name != "tensor.py"
                 for line in _tuple_key_reads(path.read_text())]
    offenders += [f"{path.name}:{lineno}: {line.strip()}"
                  for path in sorted(_SRC.glob("*.py"))
                  if path.name not in ("tensor.py", "algebra.py")
                  for lineno, line in enumerate(
                      path.read_text().splitlines(), 1)
                  if any(name in line for name in _KEY_LAYOUT)]
    assert not offenders, "work on tensor legs through tensor's maps, or " \
        "read terms through TensorElement.terms:\n" + "\n".join(offenders)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_tensor_terms(), st.data())
def test_tensor_multiply_matches_the_table_algorithm_on_drawn_terms(drawn, data):
    arity, terms = drawn
    keys = st.tuples(*[st.sampled_from(_KEY_MONOS)] * arity)
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                       st.integers(1, 6))
    s = TensorElement(_KEY_PRES, arity, terms)
    t = TensorElement(_KEY_PRES, arity, data.draw(
        st.dictionaries(keys, coeffs, max_size=6)))
    for x, y in ((s, t), (t, s), (s, s)):
        product = tensor_multiply(x, y)
        assert product == tensor_multiply_by_tables(x, y)
        assert product == tensor_multiply_by_fractions(x, y)
        assert product.arity == arity
