"""Acceptance suite: every criterion asserted at exact equality.

Each test prints one PASS line on success; a failing criterion shows up
as a failing test carrying the criterion number in its name.
"""

from fractions import Fraction

import pytest

import suites
from hopfforge import catalog
from hopfforge.coideal import (antipode_image, coideal_check, containment_check,
                               full_subalgebra, is_hopf_subalgebra,
                               primitive_of_coideal, spans_equal)
from hopfforge.grading import (Signature, hilbert_divides, hilbert_series,
                               signature)
from hopfforge.hopf import verify_hopf
from hopfforge.lantern import lantern, mobius, numerology_report
from hopfforge.nakayama import (character, counit_character,
                                nakayama_automorphism, s4_identity_check)
from hopfforge.order import s_squared_analysis
from hopfforge.tensor import contract

F = Fraction


def _announce(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_b_lambda_hopf_verification():
    for lam in (0, 1, -2):
        H = catalog.build_b_lambda(lam)
        report = verify_hopf(H)
        assert report.passed
        # all four axiom groups are present in the report
        names = " ".join(c.name for c in report.checks)
        for marker in ("coproduct respects", "coassociativity", "counit axiom",
                       "antipode respects", "antipode axiom"):
            assert marker in names
    _announce(1, "B(lam) passes all four Hopf axiom groups for lam in {0,1,-2}")


def test_criterion_02_b_signature_and_hilbert():
    H = catalog.build_b_lambda(1)
    sig = signature(H)
    assert sig == Signature(((1, 2), (2, 1)))
    series = hilbert_series(sig, 4)
    assert series.coeffs == (1, 2, 4, 6, 9)
    # kernel-computed graded dimensions agree with the product formula
    assert H.filtration.graded_dims[:5] == series.coeffs
    _announce(2, "sigma(B) = (1^2, 2) with Hilbert series 1+2t+4t^2+6t^3+9t^4")


def test_criterion_03_b_lantern_is_heisenberg_with_numerology():
    H = catalog.build_b_lambda(1)
    L = lantern(H)
    assert L.brackets == {(0, 1): {2: F(1)}}   # [u_X,u_Y] = u_Z, nothing else
    report = numerology_report(signature(H))
    report.extend(H.filtration.carnot_report)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["degree 2 generated from degree 1"].passed
    assert by_name["no gaps"].passed
    assert by_name["witt bound at degree 2"].details == "m_2 = 1 <= 1"
    assert by_name["at least two primitives"].passed
    assert (mobius(1), mobius(2), mobius(3), mobius(4)) == (1, -1, -1, 0)
    _announce(3, "lantern(B) is the rank-3 two-step algebra; numerology passes")


def test_criterion_04_b_coideal_catalog_regression():
    for lam in (0, 1):
        H = catalog.build_b_lambda(lam)
        full = full_subalgebra(H)
        hopf_members = []
        for beta in (0, 1, "inf"):
            L = catalog.build_b_coideal(lam, "L", beta)
            R = catalog.build_b_coideal(lam, "R", beta)
            # the declared side is checked; 'hopf' checks both legs
            assert coideal_check(L).passed and L.side in ("left", "hopf")
            assert coideal_check(R).passed and R.side in ("right", "hopf")
            assert spans_equal(antipode_image(L), R)
            for which in (L, R):
                if is_hopf_subalgebra(which):
                    hopf_members.append(which)
            # proper containments have strictly smaller generator count
            ginf = catalog.build_b_coideal(lam, "g_inf")
            for spec in (L, R):
                assert containment_check(ginf, spec).passed
                assert containment_check(spec, full).passed
        # exactly L_0 and R_0, and they coincide
        assert len(hopf_members) == 2
        assert spans_equal(hopf_members[0], hopf_members[1])
    _announce(4, "L/R catalog certifies; S(L)=R; L_0=R_0 unique Hopf member; "
                 "containments strict")


def test_criterion_05_antipode_order():
    H = catalog.build_b_lambda(1)
    analysis = s_squared_analysis(H)
    assert not analysis.identity
    g, r = analysis.witness
    assert g == H.gen("Z") and r == -H.gen("Y")
    R = catalog.build_b_coideal(1, "R", "inf")
    analysis = s_squared_analysis(R)
    assert not analysis.identity
    g, r = analysis.witness
    W = H.gen("Z") - H.gen("X") * H.gen("Y")
    assert g == W and r == -H.gen("Y")
    for preset in catalog.ENVELOPING_PRESETS:
        assert s_squared_analysis(catalog.build_enveloping_preset(preset)).identity
    _announce(5, "squared antipode: infinite on B and R_inf with the stated "
                 "witnesses, identity on enveloping algebras")


def test_criterion_06_nakayama_of_r_inf():
    R = catalog.build_b_coideal(1, "R", "inf")
    nu = nakayama_automorphism(R, counit_character(R))
    pres = R.presentation
    assert nu.images[pres.index("Y")] == pres.gen("Y")
    assert nu.images[pres.index("W")] == pres.gen("W") - pres.gen("Y")
    _announce(6, "Nakayama of R_inf with trivial character: Y -> Y, W -> W - Y")


def test_criterion_07_fourth_power_identity_on_l_zero():
    L0 = catalog.build_b_coideal(1, "L", 0)
    chi = character(L0, {"X": 1, "Y": 0})
    report = s4_identity_check(L0, chi)
    assert report.passed
    _announce(7, "S^4 equals the two-winding composite on L_0 with chi(X)=1")


def test_criterion_08_e_example_end_to_end():
    H = catalog.build_e(1, 1, 0, 0)
    pres = H.presentation
    X, Y, Z, W = (pres.gen(g) for g in ("X", "Y", "Z", "W"))
    # antipode came from the convolution recursion (catalog supplies none)
    assert H.antipode(Z) == -Z
    # the recursion through the reduced coproduct of W forces S(W) = -W + X;
    # both convolution identities confirm it exactly
    assert H.antipode(W) == -W + X
    for leg in (1, 2):
        assert not contract(H.coproduct(W).apply_to_leg(leg, H.antipode))
    assert verify_hopf(H).passed
    assert signature(H) == Signature(((1, 2), (2, 1), (3, 1)))
    T = catalog.build_e_coideal(1, 1, 0, 0)
    assert T.side == "right" and T.coideal_report.passed
    assert T.signature() == Signature(((1, 2), (3, 1)))
    quotient = hilbert_divides(T.signature(), signature(H))
    assert quotient == Signature(((2, 1),))
    gap_report = numerology_report(T.signature())
    assert not gap_report.passed
    assert any(c.name == "no gaps" for c in gap_report.failures())
    _announce(8, "E end-to-end: antipode solved, sigma(E)=(1^2,2,3), "
                 "T certifies right with sigma(T)=(1^2,3), quotient (2), "
                 "gap-free test fails for sigma(T)")


@pytest.mark.parametrize("suite", suites.ALL_SUITES,
                         ids=lambda fn: fn.__name__.removeprefix("run_"))
def test_criterion_09_property_suites(suite):
    cases = suite()
    assert cases >= 200
    _announce(9, f"{suite.__name__.removeprefix('run_')}: {cases} exact cases")


def test_criterion_10_every_nontrivial_coideal_has_a_primitive():
    specs = [catalog.build_e_coideal()]
    for lam in (0, 1):
        specs.append(catalog.build_b_coideal(lam, "g_inf"))
        for alpha in (0, 1, F(1, 2)):
            specs.append(catalog.build_b_coideal(lam, "g_alpha", alpha))
        for which in ("L", "R"):
            for beta in (0, 1, "inf"):
                specs.append(catalog.build_b_coideal(lam, which, beta))
    for spec in specs:
        p = primitive_of_coideal(spec)
        assert p is not None and p
        assert not spec.host.reduced_coproduct(p)
        assert spec.contains(p)
    _announce(10, f"nonzero primitive found inside all {len(specs)} catalog "
                  "coideals")
