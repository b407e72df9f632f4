from fractions import Fraction

import pytest

from hopfforge import algebra, catalog
from hopfforge.coideal import full_subalgebra
from hopfforge.hopf import HopfAlgebraError
from hopfforge.nakayama import (Character, GeneratorAutomorphism, character,
                                compose_with_antipode, counit_character,
                                enveloping_integral_character,
                                nakayama_automorphism, s4_identity_check,
                                verify_character, winding)
from hopfforge.order import s_squared_analysis

from oracles import monomials_up_to, normal_element_check

F = Fraction


def l_zero():
    return catalog.build_b_coideal(1, "L", 0)


def test_verify_character():
    L0 = l_zero()
    assert counit_character(L0).report.passed
    good = character(L0, {"X": 1, "Y": 0})
    assert good.report.passed
    bad = character(L0, {"X": 1, "Y": 1})
    report = verify_character(bad)
    assert not report.passed
    assert any("kills [X,Y]" in c.name for c in report.failures())


def test_winding_on_subalgebra():
    L0 = l_zero()
    pres = L0.presentation
    chi = character(L0, {"X": 1, "Y": 0})
    X, Y = pres.gen("X"), pres.gen("Y")
    assert winding(chi, X, "left") == X + 1
    assert winding(chi, X * Y, "left") == (X + 1) * Y
    # the counit winds trivially
    eps = counit_character(L0)
    probe = X * Y - Y * 2
    assert winding(eps, probe, "left") == probe
    assert winding(eps, probe, "right") == probe


def test_winding_on_host():
    H = catalog.build_b_lambda(1)
    chi = character(H, {"X": 1})
    X, Y, Z = H.gen("X"), H.gen("Y"), H.gen("Z")
    assert winding(chi, X, "left") == X + 1
    assert winding(chi, Z, "left") == Z + Y  # the mixed term contributes
    inverse = compose_with_antipode(chi)
    assert winding(inverse, winding(chi, Z, "left"), "left") == Z
    for g in H.presentation.names:
        e = H.gen(g)
        assert winding(inverse, winding(chi, e, "left"), "left") == e


def test_winding_needs_verified_character():
    L0 = l_zero()
    broken = Character(L0, {0: F(1), 1: F(1)})
    with pytest.raises(HopfAlgebraError):
        winding(broken, L0.presentation.gen("X"), "left")


def test_nakayama_of_r_inf_with_trivial_character():
    R = catalog.build_b_coideal(1, "R", "inf")
    nu = nakayama_automorphism(R, counit_character(R))
    pres = R.presentation
    Y, W = pres.gen("Y"), pres.gen("W")
    assert nu.images[pres.index("Y")] == Y
    assert nu.images[pres.index("W")] == W - Y


def test_nakayama_identity_on_commutative_coideal():
    g = catalog.build_b_coideal(1, "g_inf")
    nu = nakayama_automorphism(g, counit_character(g))
    assert nu.images[0] == g.presentation.gen(0)


def test_nakayama_on_l_zero():
    L0 = l_zero()
    chi = character(L0, {"X": 1, "Y": 0})
    nu = nakayama_automorphism(L0, chi)
    pres = L0.presentation
    assert nu.images[pres.index("X")] == pres.gen("X") + 1
    assert nu.images[pres.index("Y")] == pres.gen("Y")


def test_nakayama_two_formulas_agree_on_hopf_targets():
    # declared-side 'hopf' computes both composites and cross-checks
    for spec in (l_zero(), catalog.build_b_coideal(1, "g_alpha", 2),
                 full_subalgebra(catalog.build_enveloping_preset("nonabelian2"))):
        chi = enveloping_integral_character(spec)
        nakayama_automorphism(spec, chi)  # raises on disagreement


def test_s4_identity_on_l_zero():
    L0 = l_zero()
    chi = character(L0, {"X": 1, "Y": 0})
    report = s4_identity_check(L0, chi)
    assert report.passed
    eps = counit_character(L0)
    assert s4_identity_check(L0, eps).passed  # S^4 = id here


def test_s4_identity_on_enveloping_with_trace_character():
    U = catalog.build_enveloping_preset("nonabelian2")
    spec = full_subalgebra(U)
    chi = enveloping_integral_character(spec)
    assert s4_identity_check(spec, chi).passed


def test_s4_requires_hopf_subalgebra():
    Linf = catalog.build_b_coideal(1, "L", "inf")
    report = s4_identity_check(Linf, counit_character(Linf))
    assert not report.passed
    assert any("Hopf subalgebra" in c.details for c in report.failures())


def test_normal_element_check():
    R = catalog.build_b_coideal(1, "R", "inf")
    pres = R.presentation
    Y, W = pres.gen("Y"), pres.gen("W")
    sigma = GeneratorAutomorphism(R, {"Y": Y, "W": W + Y * F(1, 2)})
    assert normal_element_check(Y, sigma)
    assert normal_element_check(pres.one(), GeneratorAutomorphism(R, {"Y": Y, "W": W}))
    assert not normal_element_check(Y, GeneratorAutomorphism(R, {"Y": Y, "W": W}))


def test_enveloping_integral_character_values():
    L0 = l_zero()
    chi = enveloping_integral_character(L0)
    assert chi.value("X") == 1 and chi.value("Y") == 0
    abelian = full_subalgebra(catalog.build_enveloping_preset("abelian2"))
    assert not any(enveloping_integral_character(abelian).values.values())
    heis = full_subalgebra(catalog.build_enveloping_preset("heisenberg"))
    assert not any(enveloping_integral_character(heis).values.values())


def test_integral_character_reuses_the_certificate(count_calls):
    H = catalog.build_enveloping_preset("heisenberg")
    spec = full_subalgebra(H)
    calls = count_calls(algebra, "check_confluence")
    for target in (H, spec):
        assert enveloping_integral_character(target).report.passed
    assert calls == []


def test_enveloping_character_rejects_higher_weights():
    T = catalog.build_e_coideal()
    with pytest.raises(HopfAlgebraError):
        enveloping_integral_character(T)


def test_winding_stability_violation_raises():
    # a left coideal does not support the left winding when a first-leg
    # cofactor leaves the span
    Linf = catalog.build_b_coideal(1, "L", "inf")
    chi = counit_character(Linf)
    with pytest.raises(HopfAlgebraError, match="outside the subalgebra span"):
        winding(chi, Linf.presentation.gen("Z"), "left")


def test_nakayama_on_the_host_itself():
    # as an algebra the host is generated by X, Y, W' = Z - Y*X/2 with
    # linear brackets; the adjoint trace there sends X to 2, the rest to 0
    H = catalog.build_b_lambda(1)
    chi = character(H, {"X": 2})
    nu = nakayama_automorphism(H, chi)
    assert nu.respects_relations().passed
    assert nu.images[H.presentation.index("X")] == H.gen("X") + 2
    assert nu.images[H.presentation.index("Y")] == H.gen("Y")
    assert nu.images[H.presentation.index("Z")] == H.gen("Z") + H.gen("Y")


def test_nakayama_host_formulas_disagree_for_wrong_character():
    # the two-sided cross-check doubles as a consistency test on chi:
    # a valid character that is not the integral one is rejected
    H = catalog.build_b_lambda(1)
    with pytest.raises(HopfAlgebraError, match="disagree"):
        nakayama_automorphism(H, character(H, {"X": 1}))


def test_nakayama_hopf_formulas_agree_on_full_subalgebra():
    H = catalog.build_b_lambda(1)
    full = full_subalgebra(H)
    chi = character(full, {"X": 2, "Y": 0, "Z": 0})
    nu = nakayama_automorphism(full, chi)  # raises if the formulas disagree
    assert nu.respects_relations().passed


def test_s_squared_identity_on_hopf_side_coideal():
    from hopfforge.order import s_squared_analysis
    assert s_squared_analysis(l_zero()).identity


def test_winding_respects_products_on_spec_targets():
    L0 = l_zero()
    chi = character(L0, {"X": 1, "Y": 0})
    pres = L0.presentation
    import random
    rng = random.Random(23)
    monos = monomials_up_to(pres, 3)
    for _ in range(40):
        a = pres.element({monos[rng.randrange(len(monos))]: F(rng.randint(-3, 3))})
        b = pres.element({monos[rng.randrange(len(monos))]: F(rng.randint(-3, 3))})
        assert winding(chi, a * b, "left") \
            == winding(chi, a, "left") * winding(chi, b, "left")


def test_failing_character_report_is_returned_not_attached():
    L0 = l_zero()
    bad = character(L0, {"X": 1, "Y": 1})
    assert bad.report is None
    report = verify_character(bad)
    assert [(c.name, c.details) for c in report.failures()] == \
        [("kills [X,Y]", "value 1")]
    assert bad.report is None
    with pytest.raises(HopfAlgebraError, match="not verified"):
        winding(bad, L0.presentation.gen("X"), "left")


def test_generator_automorphism_reports_a_broken_relation():
    H = catalog.build_b_lambda(1)  # [Y,X] = -Y, [Z,X] = -Z + Y, [Z,Y] = Y^2/2
    X, Y, Z = (H.gen(g) for g in "XYZ")
    assert GeneratorAutomorphism(H, {"X": X, "Y": Y, "Z": Z}) \
        .respects_relations().passed
    # X -> 2X doubles [Y,X] but not -Y
    phi = GeneratorAutomorphism(H, {"X": X * 2, "Y": Y, "Z": Z})
    report = phi.respects_relations()
    assert [c.name for c in report.failures()] == ["[Y,X]", "[Z,X]"]
    assert [c.name for c in report.checks] == ["[Y,X]", "[Z,X]", "[Z,Y]"]
    defects = {(j, i): d for j, i, d in phi.relation_defects()}
    assert defects[(1, 0)] == -Y and defects[(2, 1)] == 0
    assert phi(X * Y) == X * Y * 2  # on the ordered monomial


# hosts with a character and whether it is the integral one (so that the
# two Nakayama formulas of a two-sided target agree)
_PROTOCOL_HOSTS = [
    (lambda: catalog.build_b_lambda(1), {"X": 2}, True),
    (lambda: catalog.build_enveloping_preset("nonabelian2"), {"X": 1}, True),
    (lambda: catalog.build_enveloping_preset("heisenberg"), {}, True),
    (catalog.build_e, {"Y": 3, "Z": 2, "W": 2}, False),
]


@pytest.mark.parametrize("build, values, integral", _PROTOCOL_HOSTS,
                         ids=["B(1)", "U(nonabelian2)", "U(heisenberg)", "E"])
def test_host_answers_as_its_own_full_subalgebra(build, values, integral):
    H = build()
    full = full_subalgebra(H)
    assert H.side == full.side == "hopf" and H.host is H
    assert (s_squared_analysis(H).describe()
            == s_squared_analysis(full).describe())
    chi_h, chi_full = character(H, values), character(full, values)
    assert (compose_with_antipode(chi_h).values
            == compose_with_antipode(chi_full).values)
    if integral:
        nu_h = nakayama_automorphism(H, chi_h)
        nu_full = nakayama_automorphism(full, chi_full)
        assert ({i: e.terms for i, e in nu_h.images.items()}
                == {i: e.terms for i, e in nu_full.images.items()})


def test_a_second_key_for_one_generator_is_rejected():
    H = catalog.build_b_lambda(1)
    X, Y, Z = (H.gen(g) for g in "XYZ")
    with pytest.raises(ValueError, match="generator X is given twice"):
        character(H, {"X": 1, 0: 2})
    assert character(H, {0: 2}).values == {0: 2}
    with pytest.raises(ValueError, match="generator X is given twice"):
        GeneratorAutomorphism(H, {"X": X, 0: 2 * X, "Y": Y, "Z": Z})
    phi = GeneratorAutomorphism(H, {0: X, "Y": Y, "Z": Z})
    assert phi(Z * X) == Z * X
