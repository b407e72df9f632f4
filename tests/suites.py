"""Seed-fixed randomized suites run by the acceptance tests.

Every runner returns the number of cases it exercised so callers can
assert the required volume; all comparisons are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hopfforge import catalog
from hopfforge.nakayama import character, winding
from hopfforge.tensor import contract, tensor_multiply

from oracles import antipode_eigenbasis, monomials_up_to
from oracles import coradical_degree_by_iteration as degree

SEED = 0x5EED


def random_element(rng, pres, max_weight=4, max_terms=3, nonzero=False):
    monos = monomials_up_to(pres, max_weight)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = monos[rng.randrange(len(monos))]
        c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        terms[m] = terms.get(m, 0) + c
    e = pres.element(terms)
    if nonzero and not e:
        return pres.gen(rng.randrange(pres.ngens))
    return e


def _hosts():
    return [catalog.build_b_lambda(1), catalog.build_e()]


def run_coproduct_multiplicative(cases=200):
    rng = random.Random(SEED + 1)
    done = 0
    for H in _hosts():
        pres = H.presentation
        for _ in range(cases):
            a = random_element(rng, pres)
            b = random_element(rng, pres)
            assert H.coproduct(a * b) == tensor_multiply(H.coproduct(a),
                                                         H.coproduct(b))
            done += 1
    return done


def run_coassociativity(cases=200):
    rng = random.Random(SEED + 2)
    done = 0
    for H in _hosts():
        pres = H.presentation
        for _ in range(cases):
            a = random_element(rng, pres)
            t = H.coproduct(a)
            assert t.apply_to_leg(1, H.coproduct) == t.apply_to_leg(2, H.coproduct)
            done += 1
    return done


def run_convolution_identities(cases=200):
    rng = random.Random(SEED + 3)
    done = 0
    for H in _hosts():
        pres = H.presentation
        for _ in range(cases):
            a = random_element(rng, pres)
            t = H.coproduct(a)
            expected = H.scalar(H.counit(a))
            assert contract(t.apply_to_leg(1, H.antipode)) == expected
            assert contract(t.apply_to_leg(2, H.antipode)) == expected
            done += 1
    return done


def run_degree_submultiplicative(cases=200):
    rng = random.Random(SEED + 4)
    done = 0
    for H in _hosts():
        pres = H.presentation
        for _ in range(cases):
            a = random_element(rng, pres, nonzero=True)
            b = random_element(rng, pres, nonzero=True)
            if not a * b:
                continue
            assert degree(H, a * b) <= degree(H, a) + degree(H, b)
            done += 1
    return done


def run_antipode_degree_preserving(cases=200):
    rng = random.Random(SEED + 5)
    done = 0
    for H in _hosts():
        pres = H.presentation
        for _ in range(cases):
            a = random_element(rng, pres, nonzero=True)
            assert degree(H, H.antipode(a)) == degree(H, a)
            done += 1
    return done


def run_s_squared_degree_drop(cases=200):
    rng = random.Random(SEED + 6)
    done = 0
    for H in _hosts():
        pres = H.presentation
        for _ in range(cases):
            a = random_element(rng, pres, nonzero=True)
            r = H.s_squared(a) - a
            if r:
                assert degree(H, r) < degree(H, a)
            done += 1
    return done


def run_antipode_eigenbasis_drop(max_weight=4):
    """Constructive triangularity: a graded basis with S(b) = sign*b + lower.

    antipode_eigenbasis verifies both the involution property on every
    layer and the degree drop of each lifted eigenvector; here we count
    the produced basis vectors over the catalog.
    """
    algebras = [catalog.build_b_lambda(lam)
                for lam in (0, 1, -2, Fraction(1, 2), 3)]
    algebras += [catalog.build_e()]
    algebras += [catalog.build_enveloping_preset(p)
                 for p in catalog.ENVELOPING_PRESETS]
    done = 0
    for H in algebras:
        basis = antipode_eigenbasis(H, max_weight)
        expected = len(monomials_up_to(H.presentation, max_weight,
                                       include_identity=False))
        assert len(basis) == expected
        for b, sign in basis:
            r = H.antipode(b) - b * sign
            if r:
                assert degree(H, r) < degree(H, b)
            done += 1
    return done


def run_winding_endomorphism(cases=200):
    rng = random.Random(SEED + 7)
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    chi = character(H, {"X": 1})
    done = 0
    for _ in range(cases):
        a = random_element(rng, pres)
        b = random_element(rng, pres)
        assert (winding(chi, a * b, "left")
                == winding(chi, a, "left") * winding(chi, b, "left"))
        assert (winding(chi, a * b, "right")
                == winding(chi, a, "right") * winding(chi, b, "right"))
        done += 1
    return done


def run_confluence_oracle(cases=200, max_len=6):
    """Random rewrite positions must not change any normal form."""
    rng = random.Random(SEED + 8)
    algebras = [catalog.build_b_lambda(lam) for lam in (0, 1, -2)]
    algebras += [catalog.build_e(),
                 catalog.build_enveloping_preset("heisenberg"),
                 catalog.build_enveloping_preset("nonabelian2")]
    done = 0
    for H in algebras:
        pres = H.presentation
        for _ in range(cases):
            word = [rng.randrange(pres.ngens)
                    for _ in range(rng.randint(1, max_len))]
            expected = pres.reduce_word(word)
            assert pres.reduce_word(word, rng=rng) == expected
            done += 1
    return done


ALL_SUITES = (
    run_coproduct_multiplicative,
    run_coassociativity,
    run_convolution_identities,
    run_degree_submultiplicative,
    run_antipode_degree_preserving,
    run_s_squared_degree_drop,
    run_antipode_eigenbasis_drop,
    run_winding_endomorphism,
    run_confluence_oracle,
)
