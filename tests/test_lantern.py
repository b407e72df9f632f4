from fractions import Fraction

from hopfforge import catalog
from hopfforge.grading import Signature, signature
from hopfforge.lantern import (GradedLieAlgebra, _carnot_check,
                               _carnot_layers, lantern, mobius,
                               numerology_report)

from oracles import cocommutativity_test, verify_lie


def test_lantern_of_b_is_heisenberg():
    L = lantern(catalog.build_b_lambda(1))
    assert L.labels == ("X", "Y", "Z")
    assert L.degrees == (1, 1, 2)
    assert L.brackets == {(0, 1): {2: Fraction(1)}}
    # bracket table does not depend on the family parameter
    assert lantern(catalog.build_b_lambda(-2)).brackets == L.brackets


def test_lantern_of_enveloping_is_abelian():
    # the induced graded coproduct of a primitively generated algebra has
    # no generator@generator terms, so every extracted bracket vanishes;
    # equivalently, degree-one-only duals are abelian
    for preset in ("heisenberg", "nonabelian2", "abelian2"):
        L = lantern(catalog.build_enveloping_preset(preset))
        assert not L.brackets
        assert set(L.degrees) == {1}


def test_lantern_of_e():
    L = lantern(catalog.build_e())
    assert L.degrees == (1, 1, 2, 3)
    assert L.brackets == {(0, 1): {2: Fraction(2)}, (0, 2): {3: Fraction(-2)}}
    assert verify_lie(L).passed


def test_lantern_dimension_matches_signature():
    for H in (catalog.build_b_lambda(0), catalog.build_e(),
              catalog.build_enveloping_preset("heisenberg")):
        L = lantern(H)
        sig = signature(H)
        for d, m in sig.pairs:
            assert len(L.degree_indices(d)) == m


def test_verify_lie_flags_grading_violation():
    bad = GradedLieAlgebra(("u1", "u2", "u3"), (1, 1, 2),
                           {(0, 1): {2: Fraction(1)},
                            (0, 2): {1: Fraction(1)}})
    report = verify_lie(bad)
    assert not report.passed
    assert any("grading" in c.name for c in report.failures())


def test_verify_lie_flags_jacobi_violation():
    # grading is additive here, but the (u1,u2,v2) cyclic sum equals -e
    bad = GradedLieAlgebra(("u1", "u2", "v1", "v2", "e"), (1, 1, 2, 2, 4),
                           {(0, 1): {2: Fraction(1)},
                            (2, 3): {4: Fraction(1)}})
    report = verify_lie(bad)
    assert not report.passed
    assert any("jacobi" in c.name for c in report.failures())


def test_mobius_values():
    assert [mobius(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 30)] \
        == [1, -1, -1, 0, -1, 1, 0, 0, 0, -1]


def test_numerology_b():
    H = catalog.build_b_lambda(1)
    report = numerology_report(signature(H))
    report.extend(H.filtration.carnot_report)
    assert report.passed
    names = {c.name: c for c in report.checks}
    assert names["no gaps"].passed
    assert names["witt bound at degree 2"].details == "m_2 = 1 <= 1"
    assert names["at least two primitives"].details == "m_1 = 2"
    assert names["degree 2 generated from degree 1"].passed


def test_numerology_gap_signature_fails():
    report = numerology_report(Signature(((1, 2), (3, 1))))
    assert not report.passed
    assert any(c.name == "no gaps" for c in report.failures())
    # the other constraints hold for this multiset
    assert all(c.passed for c in report.checks if c.name != "no gaps")


def test_numerology_e():
    H = catalog.build_e()
    report = numerology_report(signature(H))
    report.extend(H.filtration.carnot_report)
    assert report.passed
    names = {c.name: c for c in report.checks}
    assert names["witt bound at degree 3"].passed  # m_3 = 1 <= 2


def test_carnot_fails_without_degree_one_generation():
    # one degree-1 and one degree-2 basis vector with a zero bracket
    L = GradedLieAlgebra(("a", "b"), (1, 2), {})
    report = numerology_report(Signature(((1, 1), (2, 1))))
    report.extend(_carnot_check(L, _carnot_layers(L)))
    assert any("degree 2 generated from degree 1" in c.name
               for c in report.failures())


def test_cocommutativity_detection():
    ok, evidence = cocommutativity_test(catalog.build_enveloping_preset("heisenberg"))
    assert ok and evidence.passed
    not_b, _ = cocommutativity_test(catalog.build_b_lambda(1))
    assert not not_b
    not_e, _ = cocommutativity_test(catalog.build_e())
    assert not not_e
