import random
from fractions import Fraction

import pytest

from hopfforge import catalog
from hopfforge.algebra import Element
from hopfforge.tensor import (TensorElement, contract, tensor_multiply,
                              tensor_product)
from oracles import monomials_up_to


def test_componentwise_product_in_e():
    pres = catalog.build_e().presentation
    X, Y = pres.gen("X"), pres.gen("Y")
    one = pres.one()
    assert (tensor_product(X, one) * tensor_product(Y, X)
            == tensor_product(X * Y, X))


def test_tensor_unit():
    pres = catalog.build_b_lambda(1).presentation
    t = tensor_product(pres.gen("X"), pres.gen("Z") - pres.one())
    assert TensorElement.unit(pres, 2) * t == t


def test_bilinear_expansion_in_b():
    pres = catalog.build_b_lambda(1).presentation
    X, Y = pres.gen("X"), pres.gen("Y")
    one = pres.one()
    lhs = (tensor_product(one, X) + tensor_product(X, one)) \
        * (tensor_product(one, Y) + tensor_product(Y, one))
    rhs = (tensor_product(one, X * Y) + tensor_product(Y, X)
           + tensor_product(X, Y) + tensor_product(X * Y, one))
    assert lhs == rhs


def test_apply_antipode_to_first_leg():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    X = pres.gen("X")
    one = pres.one()
    t = H.coproduct(X).apply_to_leg(1, H.antipode)
    assert t == tensor_product(one, X) - tensor_product(X, one)


def test_apply_identity_map():
    H = catalog.build_b_lambda(1)
    t = H.coproduct(H.gen("Z"))
    assert t.apply_to_leg(2, lambda e: e) == t


def test_apply_reduced_coproduct_kills_primitive_leg():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    t = tensor_product(pres.gen("X"), pres.gen("Y"))
    grown = t.apply_to_leg(1, H.reduced_coproduct)
    assert grown.arity == 3 and not grown


def test_contract_spreads_products():
    pres = catalog.build_b_lambda(1).presentation
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    one = pres.one()
    t = tensor_product(one, Z) + tensor_product(X, Y) + tensor_product(Z, one)
    assert contract(t) == Z * 2 + X * Y


def test_contract_with_unit_leg():
    pres = catalog.build_b_lambda(1).presentation
    a = pres.gen("Z") * Fraction(2, 3) - pres.gen("Y")
    assert contract(tensor_product(a, pres.one())) == a


def test_contract_antipode_convolution_is_counit():
    H = catalog.build_b_lambda(1)
    t = H.coproduct(H.gen("Z")).apply_to_leg(1, H.antipode)
    assert not contract(t)


def test_leg_maps_commute_on_distinct_legs():
    H = catalog.build_e()
    pres = H.presentation
    rng = random.Random(3)
    monos = monomials_up_to(pres, 4)
    for _ in range(50):
        t = tensor_product(pres.monomial(monos[rng.randrange(len(monos))]),
                           pres.monomial(monos[rng.randrange(len(monos))]))
        f = H.antipode
        g = lambda e: e * Fraction(1, 2) + e * e
        one_way = t.apply_to_leg(1, f).apply_to_leg(2, g)
        other = t.apply_to_leg(2, g).apply_to_leg(1, f)
        assert one_way == other


def test_tensor_multiply_associative():
    pres = catalog.build_b_lambda(1).presentation
    rng = random.Random(5)
    monos = monomials_up_to(pres, 3)
    def rand_tensor():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = (monos[rng.randrange(len(monos))],
                   monos[rng.randrange(len(monos))])
            terms[key] = Fraction(rng.randint(-3, 3))
        return TensorElement.from_terms(pres, 2, terms)
    for _ in range(40):
        a, b, c = rand_tensor(), rand_tensor(), rand_tensor()
        assert tensor_multiply(tensor_multiply(a, b), c) \
            == tensor_multiply(a, tensor_multiply(b, c))


def test_contract_of_coproduct_product_consistency():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    rng = random.Random(9)
    monos = monomials_up_to(pres, 4)
    for _ in range(60):
        a = pres.monomial(monos[rng.randrange(len(monos))])
        b = pres.monomial(monos[rng.randrange(len(monos))])
        lhs = contract(tensor_multiply(H.coproduct(a), H.coproduct(b)))
        assert lhs == contract(H.coproduct(a * b))


def test_arity_mismatch_raises():
    pres = catalog.build_b_lambda(1).presentation
    t2 = TensorElement.unit(pres, 2)
    t3 = TensorElement.unit(pres, 3)
    with pytest.raises(ValueError):
        tensor_multiply(t2, t3)
    with pytest.raises(ValueError):
        t2.apply_to_leg(3, lambda e: e)


def test_tensor_str():
    pres = catalog.build_b_lambda(1).presentation
    X, Y = pres.gen("X"), pres.gen("Y")
    one = pres.one()
    assert str(tensor_product(one, one) * 2) == "2*1@1"
    assert str(tensor_product(X, Y) * Fraction(-1, 2)) == "-1/2*X@Y"
    assert str(tensor_product(X, one) - 3 * tensor_product(X, Y)
               + tensor_product(one, X)) == "1@X + X@1 - 3*X@Y"
    assert str(TensorElement(pres, 2, {})) == "0"


@pytest.mark.parametrize("combine", [lambda t: t + 0, lambda t: t - 1,
                                     lambda t: 0 + t],
                         ids=["t + 0", "t - 1", "0 + t"])
def test_sum_with_a_non_tensor_is_a_type_error(combine):
    X = catalog.build_b_lambda(1).gen("X")
    with pytest.raises(TypeError):
        combine(tensor_product(X, X))


@pytest.mark.parametrize("leg", [(0,), (0, 0, 0), (-1, 1)],
                         ids=["short", "long", "negative"])
def test_from_terms_refuses_a_malformed_leg(leg):
    from hopfforge.algebra import Presentation
    from hopfforge.hopf import PresentedHopfAlgebra
    pres = Presentation([("X", 1), ("Y", 1)])
    one, x, y = (0, 0), (1, 0), (0, 1)
    with pytest.raises(ValueError, match="bad monomial"):
        TensorElement.from_terms(pres, 2, {(one, x): 1, (leg, one): 3})
    # as coproduct data it used to pass validation and print beside 1@1
    coproducts = {"X": {(one, x): 1, (x, one): 1, (leg, one): 3},
                  "Y": {(one, y): 1, (y, one): 1}}
    with pytest.raises(ValueError, match="bad monomial"):
        PresentedHopfAlgebra(pres, coproducts)


def test_constructors_keep_no_view_of_the_callers_dict():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    X, Y = pres.gen("X"), pres.gen("Y")
    x_terms = {(1, 0, 0): Fraction(2)}
    t_terms = {((1, 0, 0), (0, 1, 0)): Fraction(3)}
    x, t = Element(pres, x_terms), TensorElement(pres, 2, t_terms)
    x_terms[(1, 0, 0)], x_terms[(0, 1, 0)] = Fraction(7), Fraction(5)
    t_terms.clear()
    assert x.terms == {(1, 0, 0): 2} and str(x) == "2*X" and x == 2 * X
    assert t.terms == {((1, 0, 0), (0, 1, 0)): 3} and str(t) == "3*X@Y"
    assert t == 3 * tensor_product(X, Y)
    assert t.apply_to_leg(1, H.coproduct) == \
        3 * tensor_product(X, Y).apply_to_leg(1, H.coproduct)


@pytest.mark.parametrize("arity", [1, 2])
def test_constructors_drop_zero_coefficients(arity):
    pres = catalog.build_b_lambda(1).presentation
    X, Y = (1, 0, 0), (0, 1, 0)
    if arity == 1:
        make = lambda terms: Element(pres, terms)
        keys = (X, Y)
    else:
        make = lambda terms: TensorElement(pres, 2, terms)
        keys = ((X, Y), (Y, X))
    for terms, cleaned in (({keys[0]: Fraction(0)}, {}),
                           ({keys[0]: Fraction(0), keys[1]: Fraction(-3, 2)},
                            {keys[1]: Fraction(-3, 2)})):
        x, y = make(terms), make(cleaned)
        assert x == y and bool(x) == bool(y) and str(x) == str(y)
        assert x.scaled == y.scaled and x.terms == cleaned
        if arity == 1:
            assert x.weight == y.weight
    assert make({keys[0]: Fraction(0)}) == (pres.zero() if arity == 1
                                             else TensorElement(pres, 2, {}))
