from fractions import Fraction
from pathlib import Path

import pytest

from hopfforge import catalog
from hopfforge.algebra import Presentation
from hopfforge.grading import (FiltrationError, PowerSeries, Signature,
                               certify, certify_filtration, default_truncation,
                               hilbert_divides, hilbert_series, signature)
from hopfforge.hopf import (HopfAlgebraError, PresentedHopfAlgebra,
                            solve_antipode, verify_hopf)
from hopfforge.lantern import lantern
from hopfforge.order import s_squared_analysis
from hopfforge.parser import build_algebra, parse
from hopfforge.tensor import tensor_product as tp

from oracles import (graded_coproduct_leading, monomials_up_to,
                     truncated_filtration_check)

DATA = Path(__file__).parent / "data"


def test_b_certificate_dims():
    H = catalog.build_b_lambda(1)
    assert H.filtration.truncation == 6
    assert H.filtration.graded_dims == (1, 2, 4, 6, 9, 12, 16)
    # cumulative filtration dimensions follow
    assert sum(H.filtration.graded_dims[:3]) == 7


def test_e_certificate_passes_at_5():
    H = catalog.build_e(truncation=5)
    assert H.filtration.graded_dims == (1, 2, 4, 7, 11, 16)


def _overdeclared():
    """B(1) with Z declared in weight 3 while its filtration degree is 2."""
    pres = Presentation([("X", 1), ("Y", 1), ("Z", 3)], {
        ("Y", "X"): {(0, 1, 0): -1},
        ("Z", "X"): {(0, 0, 1): -1, (0, 1, 0): 1},
        ("Z", "Y"): {(0, 2, 0): Fraction(1, 2)},
    })
    one = pres.one()
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    H = PresentedHopfAlgebra(pres, {
        "X": tp(one, X) + tp(X, one),
        "Y": tp(one, Y) + tp(Y, one),
        "Z": tp(one, Z) + tp(X, Y) + tp(Z, one),
    }, antipodes={"X": -X, "Y": -Y, "Z": -Z + X * Y})
    H.presentation.certify()
    return H


def _negative_control():
    """k[X,Y,Z] with D(Z) = 1@Z + X@Y + Y@X + Z@1, so Z - X*Y is primitive."""
    pres = Presentation([("X", 1), ("Y", 1), ("Z", 2)], {})
    one = pres.one()
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    H = PresentedHopfAlgebra(pres, {
        "X": tp(one, X) + tp(X, one),
        "Y": tp(one, Y) + tp(Y, one),
        "Z": tp(one, Z) + tp(X, Y) + tp(Y, X) + tp(Z, one),
    })
    H.presentation.certify()
    return H


def _xyzw(w_terms):
    """k[X,Y,Z,W], weights 1,1,2,3, D(Z) = 1@Z + X@Y + Z@1 and
    D(W) = 1@W + w_terms(X, Y) + W@1."""
    pres = Presentation([("X", 1), ("Y", 1), ("Z", 2), ("W", 3)], {})
    one = pres.one()
    X, Y, Z, W = (pres.gen(g) for g in ("X", "Y", "Z", "W"))
    H = PresentedHopfAlgebra(pres, {
        "X": tp(one, X) + tp(X, one),
        "Y": tp(one, Y) + tp(Y, one),
        "Z": tp(one, Z) + tp(X, Y) + tp(Z, one),
        "W": tp(one, W) + w_terms(X, Y) + tp(W, one),
    })
    H.presentation.certify()
    return H


def _cubic_witness():
    """D(W) = 1@W + 3X^2@X + 3X@X^2 + W@1: degree 2 passes, and W - X^3 is
    primitive although W's coradical degree is its weight."""
    return _xyzw(lambda X, Y: 3 * tp(X * X, X) + 3 * tp(X, X * X))


def _b_lambda_file():
    H, _ = build_algebra(parse((DATA / "b_lambda.hopf").read_text()))
    H.presentation.certify()
    return H


def test_overdeclared_weight_yields_reweight_error():
    # declare Z in weight 3 while its actual filtration degree is 2
    H = _overdeclared()
    solve_antipode(H)
    assert verify_hopf(H).passed
    with pytest.raises(FiltrationError, match="reweight Z to 2"):
        certify_filtration(H, 4)


# Uncached catalog instances: re-certifying at another order must not touch
# the memoized ones other tests share.
AGREEMENT_CASES = [
    *[pytest.param(lambda lam=lam: catalog._b_lambda.__wrapped__(
        Fraction(lam), 6), True, id=f"B({lam})")
      for lam in ("0", "1", "-2", "1/2", "3")],
    *[pytest.param(lambda p=p: catalog._e.__wrapped__(
        *map(Fraction, p), 6), True, id="E({},{},{},{})".format(*p))
      for p in ((1, 1, 0, 0), (2, -1, 1, 3), (-2, 1, 1, 1))],
    *[pytest.param(lambda name=name: catalog.build_enveloping_preset.__wrapped__(
        name, 6), True, id=f"U({name})")
      for name in catalog.ENVELOPING_PRESETS],
    pytest.param(_b_lambda_file, True, id="b_lambda.hopf"),
    pytest.param(_overdeclared, False, id="overdeclared"),
    pytest.param(_negative_control, False, id="negative_control"),
    pytest.param(_cubic_witness, False, id="cubic_witness"),
]


@pytest.mark.parametrize("make, expected", AGREEMENT_CASES)
def test_exact_certificate_agrees_with_truncated_oracle(make, expected):
    H = make()
    for order in (max(H.presentation.weights), 6):
        assert truncated_filtration_check(H, order) is expected
        try:
            certify_filtration(H, order)
            verdict = True
        except FiltrationError:
            verdict = False
        assert verdict is expected


@pytest.mark.parametrize("make", [
    pytest.param(case.values[0], id=case.id)
    for case in AGREEMENT_CASES if case.values[1]])
def test_graded_dims_count_monomials(make):
    # the certificate reads dims off the Hilbert series; count them instead
    H = make()
    pres = H.presentation
    for order in (max(pres.weights), 6, 9):
        assert certify_filtration(H, order).graded_dims == tuple(
            len(pres.monomials_of_weight(n)) for n in range(order + 1))


def test_negative_control_names_its_primitive_symbol():
    report = certify(_negative_control(), 6)
    failed = report.failures()
    assert [c.name for c in failed] == ["filtration"]
    details = failed[0].details
    assert "-X*Y + Z" in details or "X*Y - Z" in details
    assert "primitive leading symbol of weight 2" in details
    # a failure above a passing degree 2, with a nonlinear witness
    failed = certify(_cubic_witness(), 6).failures()
    assert [(c.name, c.details) for c in failed] == [(
        "filtration", "-X^3 + W has a primitive leading symbol of weight 3: "
        "first failure at degree 3")]


@pytest.mark.parametrize("make", [
    lambda: catalog._b_lambda.__wrapped__(Fraction(1), 6),
    lambda: catalog._e.__wrapped__(Fraction(1), Fraction(1), Fraction(0),
                                   Fraction(0), 6),
    lambda: catalog.build_enveloping_preset.__wrapped__("heisenberg", 6),
], ids=["B(1)", "E", "U(heisenberg)"])
def test_passing_certificate_computes_no_witness(monkeypatch, make):
    from hopfforge import linalg
    H = make()
    calls = {"iterated": 0, "kernel": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(PresentedHopfAlgebra, "iterated_reduced_coproduct",
                        counted("iterated",
                                PresentedHopfAlgebra.iterated_reduced_coproduct))
    monkeypatch.setattr(linalg, "kernel_basis",
                        counted("kernel", linalg.kernel_basis))
    cert = certify_filtration(H, 6)
    assert H.filtration is cert
    assert calls == {"iterated": 0, "kernel": 0}


def test_non_coassociative_failure_is_named_not_crashed():
    # certify() runs the bialgebra checks first; a direct call may not
    H = _xyzw(lambda X, Y: tp(X * Y, X))
    with pytest.raises(HopfAlgebraError, match="not coassociative"):
        certify_filtration(H, 3)
    assert H.filtration is None


def test_filtration_needs_the_bialgebra_axioms():
    # D(W) = 1@W + X@Z + W@1 is not coassociative, yet its lantern passes
    # the Carnot check; the bialgebra checks reject it by name
    H = _xyzw(lambda X, Y: tp(X, X.algebra.gen("Z")))
    with pytest.raises(HopfAlgebraError, match=r"the coproduct is not "
                       r"coassociative \(coassociativity on W\)"):
        certify_filtration(H, 3)
    assert H.filtration is None


def test_e_certifies_at_order_10_without_deep_iterates():
    # the truncated check expanded 10-fold reduced coproducts here (~1 min)
    H = catalog.build_e(truncation=10)
    assert H.certification.passed
    assert H.filtration.graded_dims == hilbert_series(signature(H), 10).coeffs
    top = max(H.presentation.weights)
    assert all(n <= top for _, n in H._reduced_iter)


@pytest.mark.parametrize("truncation", [1, 0, -3])
def test_truncation_below_largest_weight_rejected(truncation):
    H = catalog.build_b_lambda(1)
    with pytest.raises(ValueError, match="needs truncation >= 2"):
        certify_filtration(H, truncation)
    assert H.filtration.truncation == 6  # the certificate is untouched


def test_underdeclared_weight_rejected_at_construction():
    pres = Presentation([("X", 1), ("Y", 1), ("Z", 1)], {})
    one = pres.one()
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    with pytest.raises(ValueError, match="reweight Z"):
        PresentedHopfAlgebra(pres, {
            "X": tp(one, X) + tp(X, one),
            "Y": tp(one, Y) + tp(Y, one),
            "Z": tp(one, Z) + tp(X, Y) + tp(Z, one),
        })


def test_signatures():
    assert str(signature(catalog.build_b_lambda(1))) == "(1^2, 2)"
    assert str(signature(catalog.build_e())) == "(1^2, 2, 3)"
    for preset, n in (("abelian3", 3), ("nonabelian2", 2), ("heisenberg", 3)):
        sig = signature(catalog.build_enveloping_preset(preset))
        assert sig.pairs == ((1, n),)


def test_signature_invariants():
    sig = signature(catalog.build_e())
    assert len(sig.as_multiset()) == 4
    assert sig.total == 1 + 1 + 2 + 3


def test_hilbert_series_product_formula():
    sig = Signature(((1, 2), (2, 1)))
    assert hilbert_series(sig, 4).coeffs == (1, 2, 4, 6, 9)
    ones = Signature(((1, 1),))
    assert hilbert_series(ones, 7).coeffs == (1,) * 8
    # multiplicativity over a signature split
    left = hilbert_series(Signature(((1, 2),)), 4).coeffs
    right = hilbert_series(Signature(((2, 1),)), 4).coeffs
    product = [sum(left[i] * right[n - i] for i in range(n + 1))
               for n in range(5)]
    assert tuple(product) == hilbert_series(sig, 4).coeffs


def test_hilbert_matches_certificate_dims():
    for H in (catalog.build_b_lambda(0), catalog.build_e(),
              catalog.build_enveloping_preset("heisenberg")):
        sig = signature(H)
        series = hilbert_series(sig, H.filtration.truncation)
        assert series.coeffs == H.filtration.graded_dims


def test_hilbert_divides():
    full = Signature(((1, 2), (2, 1)))
    assert hilbert_divides(Signature(((1, 1), (2, 1))), full) == Signature(((1, 1),))
    assert hilbert_divides(full, full) == Signature(())
    assert hilbert_divides(Signature(((1, 3),)), full) is None


def test_graded_coproduct_leading():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    one = pres.one()
    assert graded_coproduct_leading(H, "Z") \
        == tp(one, Z) + tp(X, Y) + tp(Z, one)
    assert graded_coproduct_leading(H, "X") == tp(one, X) + tp(X, one)
    E = catalog.build_e()
    ep = E.presentation
    eX, eY, eZ, eW = (ep.gen(g) for g in ("X", "Y", "Z", "W"))
    eone = ep.one()
    assert graded_coproduct_leading(E, "W") \
        == (tp(eone, eW) + tp(eW, eone) + tp(eZ, eX) - tp(eX, eZ)
            + tp(eX, eX * eY) + tp(eX * eY, eX))


def _leading_part(H, x):
    """Weight-homogeneous top part of the coproduct of a homogeneous element."""
    pres = H.presentation
    w = x.weight
    t = H.coproduct(x)
    mw = pres.monomial_weight
    from hopfforge.tensor import TensorElement
    return TensorElement(pres, 2, {k: c for k, c in t.terms.items()
                                   if mw(k[0]) + mw(k[1]) == w})


def test_leading_coproduct_is_coassociative_on_generators():
    for H in (catalog.build_b_lambda(1), catalog.build_e()):
        pres = H.presentation
        mw = pres.monomial_weight
        for g in pres.names:
            t = graded_coproduct_leading(H, g)
            left = t.apply_to_leg(1, lambda e: _leading_part(H, e))
            right = t.apply_to_leg(2, lambda e: _leading_part(H, e))
            assert left == right
            # and the total weight of every term equals the generator weight
            w = pres.weights[pres.index(g)]
            assert all(sum(mw(m) for m in key) == w for key in t.terms)


def test_default_truncation():
    assert default_truncation(catalog.build_b_lambda(1)) == 6
    assert default_truncation(catalog.build_e()) == 6


def test_power_series_str():
    assert str(PowerSeries(4, (1, 2, 4, 6, 9))) == "1 + 2*t + 4*t^2 + 6*t^3 + 9*t^4"


def test_kernel_dimensions_against_independent_route():
    # recompute ker of the n-fold reduced coproduct by chaining leg maps
    # on tensors (a different code path from the memoized iterates used by
    # the certifier) and compare with the certified monomial counts
    from hopfforge import linalg
    from hopfforge.tensor import TensorElement
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    monos = monomials_up_to(pres, 4, include_identity=False)
    for n in range(1, 5):
        rows = {}
        for col, m in enumerate(monos):
            t = H.reduced_coproduct(pres.monomial(m))
            for _ in range(n - 1):
                t = t.apply_to_leg(1, H.reduced_coproduct)
            for key, c in t.terms.items():
                rows.setdefault(key, {})[col] = c
        # exact rref, not linalg.rank: the oracle avoids the modular fast path
        rank = len(linalg.rref(list(rows.values()), len(monos))[0])
        kernel_dim = len(monos) - rank
        expected = len(monomials_up_to(pres, min(n, 4),
                                       include_identity=False))
        assert kernel_dim == expected


def test_certify_report_mentions_truncation():
    H = catalog.build_b_lambda(2)
    report = certify(H, 6)
    assert report.passed
    assert any("order 6" in c.details for c in report.checks if c.name == "filtration")


def _unitriangular(n):
    """O(U_n), the coordinate ring of the unitriangular group: commutative
    on x_ij (i < j) of weight j - i, with D(x_ij) = sum_k x_ik @ x_kj over
    i <= k <= j, where x_ii = 1; the antipode is solved."""
    pairs = sorted(((i, j) for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)), key=lambda p: p[1] - p[0])
    pres = Presentation([(f"x{i}{j}", j - i) for i, j in pairs])

    def x(i, j):
        return pres.one() if i == j else pres.gen(f"x{i}{j}")
    coproducts = {}
    for i, j in pairs:
        terms = [tp(x(i, k), x(k, j)) for k in range(i, j + 1)]
        coproducts[f"x{i}{j}"] = sum(terms[1:], terms[0])
    return PresentedHopfAlgebra(pres, coproducts, name=f"O(U_{n})")


def test_unitriangular_host_with_many_generators():
    H = _unitriangular(5)
    assert H.presentation.ngens == 10
    assert certify(H, 4).passed
    overlaps = [c for c in H.presentation.certificate.checks
                if c.name.startswith("overlap")]
    assert len(overlaps) == 120
    assert str(signature(H)) == "(1^4, 2^3, 3^2, 4)"
    assert H.filtration.graded_dims == (1, 4, 13, 34, 80)
    # the lantern is the strictly upper triangular n_5: [e_ij, e_jk] = +-e_ik
    assert len(lantern(H).brackets) == 10
    assert s_squared_analysis(H).identity


def test_certify_stops_at_antipode_when_a_coproduct_breaks_a_relation():
    # [Y,X] = X^2 with X primitive: Delta(X^2) has 2*X@X, while
    # [Delta(Y), Delta(X)] = X^2@1 + 1@X^2 for Delta(Y) = 1@Y + X@X + Y@1
    pres = Presentation([("X", 1), ("Y", 2)], {("Y", "X"): {(2, 0): 1}})
    X, Y = pres.gen("X"), pres.gen("Y")
    H = PresentedHopfAlgebra(pres, {
        "X": tp(pres.one(), X) + tp(X, pres.one()),
        "Y": tp(pres.one(), Y) + tp(X, X) + tp(Y, pres.one())}, name="Broken")
    report = certify(H)
    assert not report.passed
    last = report.checks[-1]
    assert last.name == "antipode" and not last.passed
    assert last.details == ("bialgebra checks fail; not solving the antipode: "
                            "coproduct respects [Y,X]")
    assert [d for _, _, d in H._coproduct.relation_defects()] == [-2 * tp(X, X)]
    assert H._antipode is None and H.certification is None
    assert H.filtration is None
