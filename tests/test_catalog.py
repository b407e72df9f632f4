from fractions import Fraction

import pytest

from hopfforge import catalog
from hopfforge.algebra import commutator
from hopfforge.coideal import (antipode_image, containment_check,
                               full_subalgebra, is_hopf_subalgebra, spans_equal)
from hopfforge.grading import signature
from hopfforge.hopf import verify_hopf
from hopfforge.order import s_squared_analysis

F = Fraction


@pytest.mark.parametrize("lam", [0, 1, -2, F(1, 2)])
def test_b_lambda_fully_certified(lam):
    H = catalog.build_b_lambda(lam)
    assert H.presentation.certificate.passed
    assert verify_hopf(H).passed
    assert H.filtration is not None
    assert str(signature(H)) == "(1^2, 2)"


def test_builders_are_memoized():
    assert catalog.build_b_lambda(1) is catalog.build_b_lambda(1)
    assert catalog.build_b_coideal(1, "L", "inf") is \
        catalog.build_b_coideal(1, "L", "inf")


def test_e_certified_and_antipode_solved():
    H = catalog.build_e()
    assert verify_hopf(H).passed
    assert H.antipode(H.gen("Z")) == -H.gen("Z")


def test_full_coideal_catalog_certifies():
    for lam in (0, 1):
        for which, param in (("g_inf", None), ("g_alpha", 0), ("g_alpha", 1),
                             ("L", 0), ("L", 1), ("L", "inf"),
                             ("R", 0), ("R", 1), ("R", "inf")):
            spec = catalog.build_b_coideal(lam, which, param)
            assert spec.morphism_report.passed
            assert spec.coideal_report.passed


@pytest.mark.parametrize("lam", [0, 1])
@pytest.mark.parametrize("beta", [0, 1, 2, "inf"])
def test_antipode_swaps_left_and_right_families(lam, beta):
    L = catalog.build_b_coideal(lam, "L", beta)
    R = catalog.build_b_coideal(lam, "R", beta)
    assert spans_equal(antipode_image(L), R)
    assert spans_equal(antipode_image(R), L)


def test_l_zero_equals_r_zero_and_is_the_only_hopf_one():
    for lam in (0, 1):
        L0 = catalog.build_b_coideal(lam, "L", 0)
        R0 = catalog.build_b_coideal(lam, "R", 0)
        assert spans_equal(L0, R0)
        verdicts = {}
        for which in ("L", "R"):
            for beta in (0, 1, "inf"):
                spec = catalog.build_b_coideal(lam, which, beta)
                verdicts[(which, beta)] = is_hopf_subalgebra(spec)
        assert verdicts == {("L", 0): True, ("R", 0): True,
                            ("L", 1): False, ("L", "inf"): False,
                            ("R", 1): False, ("R", "inf"): False}


def test_rank_one_catalog_coideals_are_primitive_lines():
    # every rank-1 member is generated by a primitive element
    for param in (0, 1, F(-2, 3)):
        spec = catalog.build_b_coideal(1, "g_alpha", param)
        img = spec.embed_generator(0)
        assert not spec.host.reduced_coproduct(img)
    spec = catalog.build_b_coideal(1, "g_inf")
    assert not spec.host.reduced_coproduct(spec.embed_generator(0))


def test_jordan_plane_normalization():
    # rescaling the R_inf generators exhibits [x, y] = y^2
    R = catalog.build_b_coideal(1, "R", "inf")
    host = R.host
    W = R.embed_generator("W")
    Y = R.embed_generator("Y")
    assert commutator(W * -2, Y) == Y * Y
    assert R.signature().pairs == ((1, 1), (2, 1))
    analysis = s_squared_analysis(R)
    assert not analysis.identity


def test_enveloping_presets():
    for preset in catalog.ENVELOPING_PRESETS:
        H = catalog.build_enveloping_preset(preset)
        assert verify_hopf(H).passed
        assert set(H.presentation.weights) == {1}
        assert s_squared_analysis(H).identity


@pytest.mark.parametrize("preset", ["abelian0", "abelian-2"])
def test_abelian_preset_needs_a_generator(preset):
    with pytest.raises(ValueError, match="at least one generator"):
        catalog.build_enveloping_preset(preset)


def test_enveloping_jacobi_failure_is_caught():
    from hopfforge.hopf import HopfAlgebraError
    with pytest.raises(HopfAlgebraError):
        catalog.build_enveloping("bad", ["x", "y", "z"], {
            ("y", "x"): {"z": 1},
            ("z", "x"): {"y": 1},
            ("z", "y"): {"z": 1},
        })


def test_proper_containments_have_smaller_rank():
    for lam in (0, 1):
        H = catalog.build_b_lambda(lam)
        full = full_subalgebra(H)
        ginf = catalog.build_b_coideal(lam, "g_inf")
        for which in ("L", "R"):
            for beta in (0, 1, "inf"):
                spec = catalog.build_b_coideal(lam, which, beta)
                rep = containment_check(ginf, spec)
                assert rep.passed
                rep = containment_check(spec, full)
                assert rep.passed
        for alpha in (0, 1):
            g = catalog.build_b_coideal(lam, "g_alpha", alpha)
            rep = containment_check(g, catalog.build_b_coideal(lam, "L", 0))
            assert rep.passed


def test_b_coideal_rejects_unknown_name():
    with pytest.raises(ValueError):
        catalog.build_b_coideal(1, "M", 0)


def _all_catalog_coideals(lam):
    specs = [catalog.build_b_coideal(lam, "g_inf"),
             catalog.build_b_coideal(lam, "g_alpha", 1)]
    for which in ("L", "R"):
        for beta in (0, 1, "inf"):
            specs.append(catalog.build_b_coideal(lam, which, beta))
    return specs


def test_coideal_signatures_divide_the_host_signature():
    from hopfforge.grading import hilbert_divides
    for lam in (0, 1):
        host_sig = signature(catalog.build_b_lambda(lam))
        for spec in _all_catalog_coideals(lam):
            assert hilbert_divides(spec.signature(), host_sig) is not None
            # nontrivial coideals start in degree one
            assert spec.signature().pairs[0][0] == 1
    host_sig = signature(catalog.build_e())
    T = catalog.build_e_coideal()
    assert hilbert_divides(T.signature(), host_sig) is not None
    assert T.signature().pairs[0][0] == 1


def test_commutative_coideals_have_identity_squared_antipode():
    # rank-1 members are commutative polynomial lines
    for spec in (catalog.build_b_coideal(1, "g_inf"),
                 catalog.build_b_coideal(1, "g_alpha", F(2, 5))):
        assert s_squared_analysis(spec).identity


def test_numerology_holds_for_all_catalog_hopf_algebras():
    from hopfforge.lantern import numerology_report
    algebras = [catalog.build_b_lambda(lam) for lam in (0, 1, -2)]
    algebras.append(catalog.build_e())
    algebras += [catalog.build_enveloping_preset(p)
                 for p in catalog.ENVELOPING_PRESETS]
    for H in algebras:
        report = numerology_report(signature(H))
        report.extend(H.filtration.carnot_report)
        assert report.passed
