from fractions import Fraction

import pytest

from hopfforge import algebra, catalog
from hopfforge.coideal import (RegistrationError, antipode_image, coideal_check,
                               coinvariants, containment_check, full_subalgebra,
                               is_hopf_subalgebra, primitive_of_coideal,
                               register_subalgebra, spans_equal)
from hopfforge.grading import Signature
from hopfforge.hopf import CertificateMissingError
from hopfforge.report import Report

F = Fraction


def test_register_l_inf():
    spec = catalog.build_b_coideal(1, "L", "inf")
    assert spec.morphism_report.passed
    assert spec.presentation.weights == (1, 2)
    assert spec.coideal_report.passed


def test_register_t_in_e():
    spec = catalog.build_e_coideal()
    assert spec.presentation.weights == (1, 1, 3)
    assert spec.coideal_report.passed
    assert spec.side == "right"


def test_querying_the_other_side_keeps_the_declared_certificate():
    spec = catalog.build_b_coideal(1, "L", "inf")
    declared = spec.coideal_report
    assert not coideal_check(spec, "right").passed
    assert spec.coideal_report is declared and declared.passed
    assert declared.name == "L_inf: coideal (left)"


def test_guards_read_no_report(monkeypatch):
    H = catalog.build_b_lambda(1)
    spec = catalog.build_b_coideal(1, "L", "inf")
    X, Y, Z = H.gen("X"), H.gen("Y"), H.gen("Z")
    passed, reads = Report.passed, []
    monkeypatch.setattr(Report, "passed", property(
        lambda report: reads.append(report) or passed.fget(report)))
    for k in range(100):
        H.coproduct(X * k + Z)
        h = Y ** (k % 3) * Z if k % 2 else X + k  # X is not in L_inf
        assert spec.contains(h) == bool(k % 2)
    assert reads == []


def test_registration_checks_termination_once(count_calls):
    H = catalog.build_b_lambda(1)
    calls = count_calls(algebra, "check_termination_weights")
    register_subalgebra(H, "L", [("Y", 1), ("Z", 2)],
                        {("Z", "Y"): {(2, 0): F(1, 2)}},
                        {"Y": H.gen("Y"), "Z": H.gen("Z")}, "left", 6)
    assert len(calls) == 1


def test_register_rejects_wrong_weight():
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError, match="reweight Z to 2"):
        register_subalgebra(H, "bad", [("Z", 1)], {},
                            {"Z": H.gen("Z")}, "left", 6)


def test_register_rejects_broken_relation():
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError, match="respect the relations"):
        register_subalgebra(
            H, "bad", [("Y", 1), ("Z", 2)],
            {("Z", "Y"): {(2, 0): 1}},  # wrong coefficient
            {"Y": H.gen("Y"), "Z": H.gen("Z")}, "left", 6)


def test_register_rejects_dependent_generators():
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError, match="dependent"):
        register_subalgebra(
            H, "bad", [("A", 1), ("B", 1)], {},
            {"A": H.gen("Y"), "B": H.gen("Y") * 2}, "left", 6)


def test_coideal_sides():
    Linf = catalog.build_b_coideal(1, "L", "inf")
    assert coideal_check(Linf, "left").passed
    wrong = coideal_check(Linf, "right")
    assert not wrong.passed
    assert any("(X)@Y" in c.details for c in wrong.failures())
    Rinf = catalog.build_b_coideal(1, "R", "inf")
    assert coideal_check(Rinf, "right").passed
    assert not coideal_check(Rinf, "left").passed


def test_coideal_check_second_legs_of_l_inf():
    # second legs of the coproduct of Z stay inside k<Y,Z>
    Linf = catalog.build_b_coideal(1, "L", "inf")
    H = Linf.host
    t = H.coproduct(Linf.embed_generator("Z"))
    cofactors = dict((str(H.presentation.monomial(m)), cof)
                      for m, cof in t.leg_cofactors(1))
    assert set(cofactors) == {"1", "X", "Z"}
    for cof in cofactors.values():
        assert Linf.contains(cof, 2)


def test_antipode_image_swaps_the_families():
    for lam in (0, 1):
        for beta in (0, 1, "inf"):
            L = catalog.build_b_coideal(lam, "L", beta)
            R = catalog.build_b_coideal(lam, "R", beta)
            S_of_L = antipode_image(L)
            assert S_of_L.side in ("right", "hopf")
            assert spans_equal(S_of_L, R)


def test_antipode_image_is_involutive_on_spans():
    T = catalog.build_e_coideal()
    back = antipode_image(antipode_image(T))
    assert spans_equal(back, T)
    assert back.side == T.side


def test_antipode_image_fixes_primitive_line():
    g = catalog.build_b_coideal(1, "g_inf")
    assert spans_equal(antipode_image(g), g)


def test_hopf_subalgebra_detection():
    assert is_hopf_subalgebra(catalog.build_b_coideal(1, "L", 0))
    assert not is_hopf_subalgebra(catalog.build_b_coideal(1, "L", "inf"))
    assert not is_hopf_subalgebra(catalog.build_b_coideal(1, "R", "inf"))
    assert is_hopf_subalgebra(catalog.build_b_coideal(1, "g_alpha", F(3, 2)))


def test_signatures_and_gk():
    assert catalog.build_b_coideal(1, "L", 1).signature() == Signature(((1, 1), (2, 1)))
    assert catalog.build_b_coideal(1, "L", 0).signature() == Signature(((1, 2),))
    T = catalog.build_e_coideal()
    assert T.signature() == Signature(((1, 2), (3, 1)))
    assert T.gk_dimension() == 3


def test_containments():
    H = catalog.build_b_lambda(1)
    ginf = catalog.build_b_coideal(1, "g_inf")
    Linf = catalog.build_b_coideal(1, "L", "inf")
    full = full_subalgebra(H)
    rep = containment_check(ginf, Linf)
    assert rep.passed and any("proper" in c.name for c in rep.checks)
    rep2 = containment_check(Linf, Linf)
    assert rep2.passed and any("equality" in c.name for c in rep2.checks)
    rep3 = containment_check(Linf, full)
    assert rep3.passed
    # non-containment is reported, not raised
    galpha = catalog.build_b_coideal(1, "g_alpha", 1)
    rep4 = containment_check(galpha, Linf)
    assert not rep4.passed


def test_coinvariants_round_trip_recovers_the_coideal():
    H = catalog.build_b_lambda(1)
    Linf = catalog.build_b_coideal(1, "L", "inf")
    basis = coinvariants(H, Linf, 3)
    # exactly the embedded span of the subalgebra's monomials up to weight 3
    t_monos = Linf.presentation.monomials_up_to(3)
    assert len(basis) == len(t_monos)
    for e in basis:
        assert Linf.contains(e, 3)


def test_coinvariants_trivial_cases():
    H = catalog.build_b_lambda(1)
    # the whole algebra: the quotient is by the augmentation ideal, and
    # every element is coinvariant
    full = full_subalgebra(H)
    basis = coinvariants(H, full, 2)
    assert len(basis) == len(H.presentation.monomials_up_to(2))
    # the trivial subalgebra: only scalars are coinvariant
    trivial = register_subalgebra(H, "k", [], {}, {}, "left", 6)
    basis = coinvariants(H, trivial, 3)
    assert len(basis) == 1
    assert str(basis[0]) == "1"


def test_primitive_of_coideal():
    for beta in (1, "inf"):
        L = catalog.build_b_coideal(1, "L", beta)
        p = primitive_of_coideal(L)
        host = L.host
        assert p and not host.reduced_coproduct(p)
        assert str(p) == "Y"
    T = catalog.build_e_coideal()
    p = primitive_of_coideal(T)
    assert p and not T.host.reduced_coproduct(p)
    assert p.weight == 1
    galpha = catalog.build_b_coideal(1, "g_alpha", F(1, 3))
    p = primitive_of_coideal(galpha)
    host = galpha.host
    assert p is not None
    # spans the line through X + Y/3
    target = host.gen("X") + host.gen("Y") * F(1, 3)
    assert spans_equal_line(p, target)


def spans_equal_line(a, b):
    for m, c in a.terms.items():
        scale = b.terms.get(m)
        if scale is None:
            return False
        return a == b * (c / scale)
    return False


def test_membership_cutoff_enforced():
    Linf = catalog.build_b_coideal(1, "L", "inf")
    big = Linf.host.gen("Z") ** 4  # weight 8 exceeds the certified cutoff
    with pytest.raises(CertificateMissingError):
        Linf.contains(big)
