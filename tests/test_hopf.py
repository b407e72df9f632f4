import ast
import inspect
import random
import re
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from hopfforge import catalog, tensor
from hopfforge.algebra import (GeneratorMap, Presentation,
                               PresentationMismatchError)
from hopfforge.cli import run
from hopfforge.grading import certify
from hopfforge.hopf import (AntipodeSolveError, CertificateMissingError,
                            PresentedHopfAlgebra, _ConvolutionInverse,
                            solve_antipode, verify_bialgebra, verify_hopf)
from hopfforge.lantern import lantern
from hopfforge.nakayama import counit_character, winding
from hopfforge.order import s_squared_analysis
from hopfforge.parser import build_algebra, parse
from hopfforge.tensor import TensorElement, tensor_product as tp

from oracles import (antipode_eigenbasis, antipode_image_by_registration,
                     antipode_images_by_recursion,
                     bialgebra_lines_by_computation, coinvariants,
                     convolution_defects, coradical_degree_by_iteration,
                     counit_leg, hopf_lines_by_computation,
                     monomials_up_to, primitive_basis,
                     primitive_basis_by_kernel, verify_lie)
from suites import random_element
from test_grading import _unitriangular
from test_kernels import _unitriangular_5

ROOT = Path(__file__).parent.parent

F = Fraction


def test_coproduct_of_z_in_b():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    one = pres.one()
    assert H.coproduct(Z) == tp(one, Z) + tp(X, Y) + tp(Z, one)


def test_coproduct_of_unit_is_grouplike():
    H = catalog.build_b_lambda(0)
    assert H.coproduct(H.one()) == tp(H.one(), H.one())


def test_coproduct_of_w_minus_xz_in_e():
    # expanding the generator data through the relations fixes the signs
    H = catalog.build_e()
    pres = H.presentation
    X, Y, Z, W = (pres.gen(g) for g in ("X", "Y", "Z", "W"))
    one = pres.one()
    V = W - X * Z
    expected = (tp(one, V) + tp(V, one) + tp(X * Y, X) * 2 - tp(X, Z) * 2
                - tp(X * X, Y) + tp(Y, X * X))
    assert H.coproduct(V) == expected


def test_counit_examples():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    assert H.counit(pres.gen("Z")) == 0
    assert H.counit(pres.one()) == 1
    assert H.counit(pres.scalar(3) + pres.gen("X") ** 2 * pres.gen("Y")) == 3


def test_antipode_examples():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    assert H.antipode(Z) == -Z + X * Y
    assert H.antipode(pres.one()) == pres.one()
    assert H.s_squared(Z) == Z - Y


def test_solve_antipode_for_e():
    H = catalog.build_e()
    pres = H.presentation
    X, Z, W = pres.gen("X"), pres.gen("Z"), pres.gen("W")
    assert H.antipode(Z) == -Z
    # the convolution recursion through the reduced coproduct of W gives
    # S(W) = -W + X; both convolution identities for W confirm it below
    assert H.antipode(W) == -W + X
    t = H.coproduct(W)
    from hopfforge.tensor import contract
    assert not contract(t.apply_to_leg(1, H.antipode))
    assert not contract(t.apply_to_leg(2, H.antipode))


def test_solve_antipode_primitive_generator():
    H = catalog.build_enveloping_preset("heisenberg")
    for g in H.presentation.names:
        assert H.antipode(H.gen(g)) == -H.gen(g)


@pytest.mark.parametrize("lam", [0, 1, -2])
def test_verify_hopf_b(lam):
    H = catalog.build_b_lambda(lam)
    assert verify_hopf(H).passed


def test_verify_hopf_e():
    assert verify_hopf(catalog.build_e()).passed


def test_corrupted_coproduct_fails_verification():
    # flipping the mixed term of the Z coproduct still yields a bialgebra
    # map here (it is the co-opposite structure), so the damage surfaces
    # in the antipode axioms, which the combined report must catch
    pres = Presentation([("X", 1), ("Y", 1), ("Z", 2)], {
        ("Y", "X"): {(0, 1, 0): -1},
        ("Z", "X"): {(0, 0, 1): -1, (0, 1, 0): 1},
        ("Z", "Y"): {(0, 2, 0): F(1, 2)},
    })
    one = pres.one()
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    H = PresentedHopfAlgebra(pres, {
        "X": tp(one, X) + tp(X, one),
        "Y": tp(one, Y) + tp(Y, one),
        "Z": tp(one, Z) + tp(Y, X) + tp(Z, one),   # legs swapped
    }, antipodes={"X": -X, "Y": -Y, "Z": -Z + X * Y})
    H.presentation.certify()
    report = verify_hopf(H)
    assert not report.passed
    failing = {c.name for c in report.failures()}
    assert any("antipode axiom on Z" in name for name in failing)
    # rescaling [Z,Y] keeps confluence but does break compatibility (a)
    pres2 = Presentation([("X", 1), ("Y", 1), ("Z", 2)], {
        ("Y", "X"): {(0, 1, 0): -1},
        ("Z", "X"): {(0, 0, 1): -1, (0, 1, 0): 1},
        ("Z", "Y"): {(0, 2, 0): 1},                # Y^2 instead of Y^2/2
    })
    one2 = pres2.one()
    X2, Y2, Z2 = pres2.gen("X"), pres2.gen("Y"), pres2.gen("Z")
    H2 = PresentedHopfAlgebra(pres2, {
        "X": tp(one2, X2) + tp(X2, one2),
        "Y": tp(one2, Y2) + tp(Y2, one2),
        "Z": tp(one2, Z2) + tp(X2, Y2) + tp(Z2, one2),
    }, antipodes={"X": -X2, "Y": -Y2, "Z": -Z2 + X2 * Y2})
    H2.presentation.certify()
    report2 = verify_hopf(H2)
    assert not report2.passed
    assert any("coproduct respects" in c.name for c in report2.failures())


def test_reduced_coproduct_values():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    assert H.reduced_coproduct(Z) == tp(X, Y)
    assert not H.iterated_reduced_coproduct(Z, 2)
    with pytest.raises(ValueError):
        H.reduced_coproduct(pres.one() + X)


def test_iterated_reduced_coproduct_in_e():
    H = catalog.build_e()
    pres = H.presentation
    X, Y, W = pres.gen("X"), pres.gen("Y"), pres.gen("W")
    assert H.iterated_reduced_coproduct(W, 2) == tp(X, Y, X) * 2


def test_coradical_degree():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    assert H.coradical_degree(pres.gen("Z")) == 2
    assert H.coradical_degree(pres.gen("X")) == 1
    assert H.coradical_degree(pres.scalar(5)) == 0
    with pytest.raises(ValueError):
        H.coradical_degree(pres.zero())
    E = catalog.build_e()
    V = E.gen("W") - E.gen("X") * E.gen("Z")
    assert E.coradical_degree(V) == 3


def test_primitive_basis():
    H = catalog.build_b_lambda(1)
    prims = primitive_basis(H)
    names = {str(p) for p in prims}
    assert names == {"X", "Y"}
    E = catalog.build_e()
    assert {str(p) for p in primitive_basis(E)} == {"X", "Y"}
    U = catalog.build_enveloping_preset("nonabelian2")
    assert {str(p) for p in primitive_basis(U)} == {"X", "Y"}


def test_antipode_inverse():
    H = catalog.build_b_lambda(1)
    pres = H.presentation
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    assert H.antipode_inverse(X) == -X
    y = H.antipode_inverse(Z)
    assert y == -Z + X * Y - Y
    assert H.antipode(y) == Z
    rng = random.Random(17)
    monos = monomials_up_to(pres, 4)
    for _ in range(40):
        a = pres.element({monos[rng.randrange(len(monos))]:
                          F(rng.randint(-3, 3))})
        assert H.antipode_inverse(H.antipode(a)) == a


def _b1():
    return catalog.build_b_lambda(1)


def _l_inf():
    return catalog.build_b_coideal(1, "L", "inf")


# each use reads the monomial ids or terms of its input as those of its
# own presentation: B(1)'s, or that of B(1)'s subalgebra L_inf
_FOREIGN_USES = {
    "coproduct": lambda x: _b1().coproduct(x),
    "reduced_coproduct": lambda x: _b1().reduced_coproduct(x),
    "iterated_reduced_coproduct":
        lambda x: _b1().iterated_reduced_coproduct(x, 2),
    "antipode": lambda x: _b1().antipode(x),
    "antipode_inverse": lambda x: _b1().antipode_inverse(x),
    "coradical_degree": lambda x: _b1().coradical_degree(x),
    "character": lambda x: counit_character(_b1())(x),
    "winding": lambda x: winding(counit_character(_b1()), x, "left"),
    "contains": lambda x: _l_inf().contains(x),
    "represent": lambda x: _l_inf().represent(x),
    "embed": lambda x: _l_inf().embed(x),
    "subalgebra winding":
        lambda x: winding(counit_character(_l_inf()), x, "right"),
}


@pytest.mark.parametrize("element", ["E", "B(2)"])
@pytest.mark.parametrize("use", list(_FOREIGN_USES))
def test_an_element_of_another_presentation_is_refused(use, element):
    # B(2) has B(1)'s shape: its ids would read as B(1)'s monomials
    x = (catalog.build_e().gen("W") if element == "E"
         else catalog.build_b_lambda(2).gen("Y"))
    with pytest.raises(PresentationMismatchError):
        _FOREIGN_USES[use](x)


def test_s_squared_analysis_b_and_enveloping():
    H = catalog.build_b_lambda(1)
    analysis = s_squared_analysis(H)
    assert not analysis.identity
    g, r = analysis.witness
    assert g == H.gen("Z") and r == -H.gen("Y")
    assert analysis.describe() == "infinite; witness S^2(Z) = Z - Y"
    for preset in ("abelian2", "nonabelian2", "heisenberg"):
        assert s_squared_analysis(catalog.build_enveloping_preset(preset)).identity


def test_s_squared_analysis_on_registered_subalgebra():
    R = catalog.build_b_coideal(1, "R", "inf")
    analysis = s_squared_analysis(R)
    assert not analysis.identity
    g, r = analysis.witness
    host = R.host.presentation
    assert g == host.gen("Z") - host.gen("X") * host.gen("Y")
    assert r == -host.gen("Y")


def test_antipode_eigenbasis_structure():
    H = catalog.build_b_lambda(1)
    basis = antipode_eigenbasis(H, 3)
    assert len(basis) == len(monomials_up_to(H.presentation, 3,
                                             include_identity=False))
    for b, sign in basis:
        assert sign in (1, -1)
        r = H.antipode(b) - b * sign
        if r:
            assert (coradical_degree_by_iteration(H, r)
                    < coradical_degree_by_iteration(H, b))


@pytest.mark.parametrize("host", ["B:0", "B:1", "B:-2", "B:1/2", "E"] + [
    f"U:{p}" for p in catalog.ENVELOPING_PRESETS])
def test_coradical_degree_agrees_with_iteration(host):
    head, _, param = host.partition(":")
    H = (catalog.build_b_lambda(param) if head == "B" else catalog.build_e()
         if head == "E" else catalog.build_enveloping_preset(param))
    pres = H.presentation
    rng = random.Random(0x5EED)
    for _ in range(20):
        x = random_element(rng, pres, max_weight=4, nonzero=True)
        assert H.coradical_degree(x) == coradical_degree_by_iteration(H, x)
    assert H.coradical_degree(pres.scalar(3)) == 0


def test_coradical_degree_needs_the_filtration_certificate():
    pres = Presentation([("X", 1)], {})
    one, X = pres.one(), pres.gen("X")
    H = PresentedHopfAlgebra(pres, {"X": tp(one, X) + tp(X, one)})
    H.presentation.certify()
    with pytest.raises(CertificateMissingError):
        H.coradical_degree(X)


def test_certified_host_works_above_its_listing_order():
    # the certificate is exact in every degree; order 6 only lists dims
    H = catalog.build_b_lambda(1)
    assert H.filtration.truncation == 6
    pres = H.presentation
    Z4 = pres.gen("Z") ** 4
    assert H.antipode_inverse(H.antipode(Z4)) == Z4
    basis = antipode_eigenbasis(H, 7)
    assert len(basis) == len(monomials_up_to(pres, 7, include_identity=False))
    for b, sign in basis:
        if b.weight == 7:
            r = H.antipode(b) - b * sign
            assert not r or coradical_degree_by_iteration(H, r) < 7
    # the coinvariants of L_inf = k<Y, Z> are its span: no X in any term
    Linf = catalog.build_b_coideal(1, "L", "inf")
    invariants = coinvariants(H, Linf, 7)
    assert len(invariants) == len(monomials_up_to(Linf.presentation, 7))
    assert all(m[0] == 0 for e in invariants for m in e.terms)


def test_iterated_coproduct_lives_in_hopf_and_the_filtration_check():
    # degrees are weights once certified; only the failure-path witness
    # (the reweight check) in grading.certify_filtration iterates coproducts
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    names = ("iterated_reduced_coproduct", "_reduced_iterate_monomial")
    tree = ast.parse((src / "grading.py").read_text())
    allowed = next(range(f.lineno, f.end_lineno + 1) for f in tree.body
                   if getattr(f, "name", None) == "certify_filtration")
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "hopf.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(n in line for n in names) and not (
                    path.name == "grading.py" and lineno in allowed):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


# the rejections of hopf._validate_coproduct, on Delta(X) over <X, Y> in
# weight 1: (Delta(X) from one, X, Y; the same as a .hopf line; message)
_UNIT_LEGS = "coproduct of X must contain 1@X and X@1 with coefficient 1"
_BAD_COPRODUCTS = {
    "missing X@1": (lambda one, X, Y: tp(one, X), "1@X", _UNIT_LEGS),
    "non-unit 1@X": (lambda one, X, Y: tp(one, X) * 2 + tp(X, one),
                     "2*1@X + X@1", _UNIT_LEGS),
    "stray identity leg": (
        lambda one, X, Y: tp(one, X) + tp(X, one) + tp(one, Y),
        "1@X + X@1 + 1@Y", "coproduct of X has a stray identity leg in 1@Y"),
    "over weight": (
        lambda one, X, Y: tp(one, X) + tp(X, one) + tp(Y, Y),
        "1@X + X@1 + Y@Y", "coproduct of X has a term of weight 2 above "
        "the declared weight 1; reweight X"),
}


@pytest.mark.parametrize("delta,line,message", _BAD_COPRODUCTS.values(),
                         ids=_BAD_COPRODUCTS.keys())
def test_coproduct_outside_the_normal_form_is_rejected(delta, line, message):
    pres = Presentation([("X", 1), ("Y", 1)])
    one, X, Y = pres.one(), pres.gen("X"), pres.gen("Y")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PresentedHopfAlgebra(pres, {"X": delta(one, X, Y),
                                    "Y": tp(one, Y) + tp(Y, one)})


@pytest.mark.parametrize("delta,line,message", _BAD_COPRODUCTS.values(),
                         ids=_BAD_COPRODUCTS.keys())
def test_coproduct_outside_the_normal_form_exit_2(delta, line, message,
                                                  capsys, tmp_path):
    path = tmp_path / "bad_coproduct.hopf"
    path.write_text("hopf A\ngen X weight 1\ngen Y weight 1\n"
                    f"coprod X = {line}\ncoprod Y = 1@Y + Y@1\n")
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"bad definition: {message}\n")


def test_certificate_gating():
    pres = Presentation([("X", 1)], {})
    one = pres.one()
    X = pres.gen("X")
    H = PresentedHopfAlgebra(pres, {"X": tp(one, X) + tp(X, one)})
    with pytest.raises(CertificateMissingError):
        H.coproduct(X)
    H.presentation.certify()
    H.coproduct(X)  # now fine
    with pytest.raises(AntipodeSolveError):
        H.antipode(X)
    solve_antipode(H)
    assert H.antipode(X) == -X
    with pytest.raises(CertificateMissingError):
        H.antipode_inverse(X)


def test_solve_antipode_refuses_broken_bialgebra():
    # rescaled [Z,Y] breaks coproduct compatibility, so solving must refuse
    pres = Presentation([("X", 1), ("Y", 1), ("Z", 2)], {
        ("Y", "X"): {(0, 1, 0): -1},
        ("Z", "X"): {(0, 0, 1): -1, (0, 1, 0): 1},
        ("Z", "Y"): {(0, 2, 0): 1},
    })
    one = pres.one()
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    H = PresentedHopfAlgebra(pres, {
        "X": tp(one, X) + tp(X, one),
        "Y": tp(one, Y) + tp(Y, one),
        "Z": tp(one, Z) + tp(X, Y) + tp(Z, one),
    })
    H.presentation.certify()
    with pytest.raises(AntipodeSolveError, match="bialgebra checks fail"):
        solve_antipode(H)


def test_attach_antipode_twice_rejected():
    H = catalog.build_b_lambda(3)
    with pytest.raises(Exception, match="already attached"):
        H.attach_antipode({g: -H.gen(g) for g in H.presentation.names})


def test_solve_antipode_verifies_supplied_data():
    # wrong supplied antipode data must be rejected by the verification pass
    pres = Presentation([("X", 1)], {})
    one, X = pres.one(), pres.gen("X")
    H = PresentedHopfAlgebra(pres, {"X": tp(one, X) + tp(X, one)},
                             antipodes={"X": X})
    H.presentation.certify()
    with pytest.raises(AntipodeSolveError, match="convolution"):
        solve_antipode(H)


def test_connectedness_normal_form_enforced():
    pres = Presentation([("X", 1), ("Z", 2)], {})
    one = pres.one()
    X, Z = pres.gen("X"), pres.gen("Z")
    with pytest.raises(ValueError):
        # missing the unit terms
        PresentedHopfAlgebra(pres, {"X": tp(X, one), "Z": tp(one, Z) + tp(Z, one)})
    with pytest.raises(ValueError, match="reweight"):
        # a term heavier than the declared generator weight
        pres2 = Presentation([("X", 1), ("Z", 1)], {})
        one2, X2, Z2 = pres2.one(), pres2.gen("X"), pres2.gen("Z")
        PresentedHopfAlgebra(pres2, {
            "X": tp(one2, X2) + tp(X2, one2),
            "Z": tp(one2, Z2) + tp(Z2, one2) + tp(X2, X2)})


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_structure_maps_on_powers_beyond_the_recursion_limit():
    # the antipode and subalgebra images of a monomial peel one generator
    # factor per loop step, not per call
    n = sys.getrecursionlimit() + 50
    H = catalog.build_enveloping_preset("abelian1")
    X = H.gen("X1")
    assert H.antipode(X ** n) == H.scalar((-1) ** n) * X ** n
    ginf = catalog.build_b_coideal(1, "g_inf")
    assert ginf.monomial_image((n,)) == ginf.host.gen("Y") ** n
    # Delta(X^m) expands O(m^2) binomial terms, so the coproduct runs at a
    # smaller exponent under a recursion limit lowered below it
    m = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        delta = H.coproduct(X ** m)
    finally:
        sys.setrecursionlimit(limit)
    assert delta.terms == {((k,), (m - k,)): F(comb(m, k))
                           for k in range(m + 1)}


def test_a_second_key_for_one_generator_is_rejected_in_the_hopf_data():
    pres = Presentation([("X", 1), ("Y", 1)])
    X, Y = pres.gen("X"), pres.gen("Y")
    prim = {g: tp(pres.one(), pres.gen(g)) + tp(pres.gen(g), pres.one())
            for g in "XY"}
    with pytest.raises(ValueError, match="generator X is given twice"):
        PresentedHopfAlgebra(pres, {**prim, 0: 2 * prim["X"]})
    H = PresentedHopfAlgebra(pres, {0: prim["X"], 1: prim["Y"]})
    assert H.presentation.certify().passed
    assert H.coproduct(X) == prim["X"]
    with pytest.raises(ValueError, match="generator Y is given twice"):
        H.attach_antipode({"X": -X, "Y": -Y, 1: Y})
    H.attach_antipode({0: -X, "Y": -Y})
    assert H.antipode(X * Y) == Y * X


# -- what certification has by proof, checked by definition ------------------

def _from_file(path):
    def make():
        H, _ = build_algebra(parse((ROOT / path).read_text()))
        assert certify(H).passed
        return H
    return make


def _upper_triangular_lie(n):
    """U(n_n), n_n the strictly upper triangular n x n matrices:
    [e_ij, e_kl] = [j = k] e_il - [l = i] e_kj."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[:a]:
            entry = {**({f"e{i}{l}": 1} if j == k else {}),
                     **({f"e{k}{j}": -1} if l == i else {})}
            if entry:
                brackets[(f"e{i}{j}", f"e{k}{l}")] = entry
    return catalog.build_enveloping(f"U(n_{n})", [f"e{i}{j}" for i, j in pairs],
                                    brackets)


PROOF_HOSTS = [
    *[pytest.param(lambda lam=lam: catalog.build_b_lambda(lam), id=f"B:{lam}")
      for lam in ("0", "1", "-2", "1/2")],
    pytest.param(catalog.build_e, id="E"),
    pytest.param(lambda: catalog.build_e(3, -1, 1, 0), id="E(3,-1,1,0)"),
    *[pytest.param(lambda p=p: catalog.build_enveloping_preset(p), id=f"U:{p}")
      for p in catalog.ENVELOPING_PRESETS],
    *[pytest.param(_from_file(path), id=path) for path in (
        "tests/data/b_lambda.hopf", "bench/data/b_half.hopf",
        "bench/data/e_solved.hopf", "bench/data/heisenberg.hopf")],
    pytest.param(_unitriangular_5, id="O(U_5)"),
    pytest.param(lambda: _upper_triangular_lie(5), id="U(n_5)"),
]


@pytest.mark.parametrize("make", PROOF_HOSTS)
def test_antipode_is_two_sided_and_the_lantern_is_a_lie_algebra(make):
    # certification checks the left identity only, and no Jacobi identity
    H = make()
    for g in H.presentation.names:
        assert convolution_defects(H, g) == (H.zero(), H.zero()), g
    assert verify_lie(lantern(H)).passed


@pytest.mark.parametrize("make", PROOF_HOSTS)
def test_counit_axioms_hold_on_every_generator(make):
    # verify_bialgebra passes these lines by proof, computing nothing
    H = make()
    for g in H.presentation.names:
        t = H.coproduct(H.gen(g))
        assert counit_leg(H, t, 1) == counit_leg(H, t, 2) == H.gen(g), g
    lines = {c.name: c.passed for c in verify_hopf(H).checks}
    assert all(lines[f"counit axiom on {g}"] for g in H.presentation.names)


@pytest.mark.parametrize("make", PROOF_HOSTS)
def test_primitive_basis_is_the_kernel_of_the_reduced_coproduct(make):
    H = make()
    assert primitive_basis(H) == primitive_basis_by_kernel(H, 4)


_B1 = (ROOT / "tests/data/b_lambda.hopf").read_text().split("# rank-2 left")[0]


@pytest.mark.parametrize("right, wrong, failing", [
    ("antipode X = -X", "antipode X = X", "XZ"),
    ("antipode Z = -Z + X*Y", "antipode Z = -Z", "Z")],
    ids=["lighter-image", "top-generator"])
def test_wrong_attached_antipode_fails_everywhere(tmp_path, right, wrong,
                                                  failing):
    text = _B1.replace(right, wrong)
    assert wrong in text

    def host():
        H, _ = build_algebra(parse(text))
        H.presentation.certify()
        return H
    named = "; ".join(f"antipode axiom on {g}" for g in failing)
    with pytest.raises(AntipodeSolveError) as exc:
        solve_antipode(host())
    assert str(exc.value) == ("attached antipode data violates the "
                              f"convolution identities: {named}")
    report = certify(host())
    assert [(c.name, c.details) for c in report.failures()] == [
        ("antipode", str(exc.value))]
    path = tmp_path / "wrong_antipode.hopf"
    path.write_text(text)
    assert run(["verify", str(path)]) == 3


# what certification has by proof is not recomputed: per file, the lines
# that would recompute it; anywhere, the names of the code that did
_RECHECKS = {"hopf.py": r"apply_to_leg\(2, [^)]*antipode|_verify_convolution",
             "grading.py": r"verify_lie\(", "cli.py": r"verify_lie\("}
_GONE = r"lie_report|solved antipode fails|counit_leg"


def _proof_offenders(sources: dict[str, str]) -> list[str]:
    offenders = []
    for name, text in sorted(sources.items()):
        pattern = re.compile("|".join(filter(None, (_RECHECKS.get(name), _GONE))))
        offenders += [f"{name}:{n}: {line.strip()}"
                      for n, line in enumerate(text.splitlines(), 1)
                      if pattern.search(line)]
        for f in ast.walk(ast.parse(text)):
            if not isinstance(f, ast.FunctionDef):
                continue
            body = list(ast.walk(f))
            if f.name == "_extract_lantern" and any(
                    isinstance(n, ast.Raise) or isinstance(n, ast.Name)
                    and n.id == "verify_lie" for n in body):
                offenders.append(f"{name}: a Lie check in _extract_lantern")
            if f.name == "solve_antipode" and any(
                    isinstance(n, ast.If) and "_antipode" in ast.unparse(n.test)
                    for n in body):
                offenders.append(f"{name}: solve_antipode forks on the data")
            if f.name == "primitive_basis" and len(f.args.args) > 1:
                offenders.append(f"{name}: primitive_basis takes a cutoff")
            if f.name == "antipode_image" and any(
                    isinstance(n, ast.Call) and ast.unparse(n.func).rpartition(
                        ".")[2] in ("register_subalgebra", "coideal_check")
                    for n in body):
                offenders.append(f"{name}: antipode_image certifies S(T) anew")
            if f.name == "antipode_inverse" and any(
                    isinstance(n, ast.Call) and ast.unparse(n.func).rpartition(
                        ".")[2] in ("antipode", "s_squared")
                    for n in body):
                offenders.append(f"{name}: antipode_inverse inverts S by S")
    return offenders


def test_proof_guard_flags_the_recomputations():
    old = {
        "hopf.py": """
def solve_antipode(H):
    if H._antipode is not None:
        rep = _verify_convolution(H)
    raise AntipodeSolveError("solved antipode fails the convolution check; "
                             "coproduct data is inconsistent")

class PresentedHopfAlgebra:
    def primitive_basis(self, weight_cutoff: int) -> list[Element]:
        right = t.apply_to_leg(2, H.coproduct)
        right = contract(t.apply_to_leg(2, H.antipode))
        lhs = H.counit_leg(t, 1)

    def antipode_inverse(self, x: Element) -> Element:
        self._require_antipode()
        if not x:
            return self.zero()
        self._require_filtration()
        if self._antipode_inverse is None:
            images = {}
            for i in range(self.presentation.ngens):
                y, r = self.zero(), self.gen(i)
                while r:
                    w, z = r.weight, self.antipode(r)
                    y, r = y + z, r - self.antipode(z)
                    if r and r.weight >= w:
                        raise HopfAlgebraError(
                            f"S^2 fails to fix the weight-{w} layer; "
                            "filtration certificate violated")
                images[i] = y
            self._antipode_inverse = GeneratorMap(
                self.presentation, images, self.one(), True)
        return self._antipode_inverse(x)
""",
        "lantern.py": """
def _extract_lantern(H):
    check = verify_lie(L)
    raise HopfAlgebraError("not a graded Lie algebra")

def verify_lie(L):
    pass
""",
        "coideal.py": inspect.getsource(antipode_image_by_registration).replace(
            "antipode_image_by_registration", "antipode_image"),
        "grading.py": "L, lie_report = _extract_lantern(H)\nverify_lie(L)\n",
        "cli.py": "session.note(verify_lie(L))\n"}
    assert _proof_offenders(old) == [
        "cli.py:1: session.note(verify_lie(L))",
        "coideal.py: antipode_image certifies S(T) anew",
        "grading.py:1: L, lie_report = _extract_lantern(H)",
        "grading.py:2: verify_lie(L)",
        "hopf.py:4: rep = _verify_convolution(H)",
        "hopf.py:5: raise AntipodeSolveError(\"solved antipode fails the "
        "convolution check; \"",
        "hopf.py:11: right = contract(t.apply_to_leg(2, H.antipode))",
        "hopf.py:12: lhs = H.counit_leg(t, 1)",
        "hopf.py: solve_antipode forks on the data",
        "hopf.py: primitive_basis takes a cutoff",
        "hopf.py: antipode_inverse inverts S by S",
        "lantern.py: a Lie check in _extract_lantern"]


def test_certification_recomputes_nothing_it_has_by_proof():
    src = ROOT / "src" / "hopfforge"
    assert not _proof_offenders(
        {path.name: path.read_text() for path in src.glob("*.py")})


# -- proved report lines against computed ones -----------------------------

def _confluent(path):
    def make():
        H, _ = build_algebra(parse((ROOT / path).read_text()))
        H.presentation.certify()
        return H
    return make


def _confluent_unitriangular_5():
    H = _unitriangular(5)
    H.presentation.certify()
    return H


_DATA_FILES = sorted(path.relative_to(ROOT).as_posix()
                     for folder in ("tests/data", "bench/data")
                     for path in (ROOT / folder).glob("*.hopf"))

# fresh hosts, built while the test watches: the catalog's own builders
# (uncached) certify, the files and O(U_5) carry only their confluence
ORACLE_HOSTS = [
    *[pytest.param(lambda lam=lam: catalog._b_lambda.__wrapped__(F(lam), 6),
                   id=f"B:{lam}") for lam in ("0", "1", "-2", "1/2")],
    *[pytest.param(lambda p=p: catalog._e.__wrapped__(*map(F, p), 6), id=name)
      for name, p in (("E", (1, 1, 0, 0)), ("E(3,-1,1,0)", (3, -1, 1, 0)))],
    *[pytest.param(lambda p=p: catalog.build_enveloping_preset.__wrapped__(p),
                   id=f"U:{p}") for p in catalog.ENVELOPING_PRESETS],
    *[pytest.param(_confluent(path), id=path) for path in _DATA_FILES],
    pytest.param(_confluent_unitriangular_5, id="O(U_5)"),
    pytest.param(lambda: _upper_triangular_lie(5), id="U(n_5)"),
]


def _lines(report):
    return [(c.name, c.passed, c.details) for c in report.checks]


def _watch(monkeypatch, owner, name):
    calls = []
    method = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: calls.append(args) or method(*args))
    return calls


@pytest.mark.parametrize("make", ORACLE_HOSTS)
def test_proved_lines_equal_computed_lines(make, monkeypatch):
    calls = _watch(monkeypatch, GeneratorMap, "relation_defects")
    H = make()
    if H.presentation.certificate is None:  # both sides need the confluence
        for lines in (verify_bialgebra, bialgebra_lines_by_computation):
            with pytest.raises(CertificateMissingError):
                lines(H)
        return
    bialgebra = verify_bialgebra(H)
    assert _lines(bialgebra) == bialgebra_lines_by_computation(H)
    if H._antipode is None:
        solve_antipode(H)
    hopf = verify_hopf(H)
    # the antipode relation defects are computed where no proof applies
    assert any(m is H._antipode for m, in calls) == (not hopf.passed)
    assert _lines(hopf) == hopf_lines_by_computation(H)


@pytest.mark.parametrize("path,failing", [
    ("tests/data/weyl.hopf", ["coproduct respects [Y,X]",
                              "counit respects [Y,X]",
                              "antipode respects [Y,X]"]),
    ("tests/data/not_coassociative.hopf", ["coassociativity on W"]),
    ("tests/data/wrong_antipode.hopf", ["antipode respects [Z,Y]",
                                        "antipode axiom on Z"]),
], ids=["weyl", "not coassociative", "wrong antipode"])
def test_failing_fixtures_fail_exactly_their_lines(path, failing):
    H = _confluent(path)()
    assert [c.name for c in verify_hopf(H).failures()] == failing


# legs: the (generator, leg) pairs whose coproduct apply_to_leg expands;
# multiplies: whether a relation outside the weight-1 pairs needs a tensor
# product (U(heisenberg) has one relation, on a weight-1 pair)
@pytest.mark.parametrize("path,legs,multiplies", [
    ("bench/data/heisenberg.hopf", [], False),
    ("tests/data/b_lambda.hopf", [], True),
    ("bench/data/e_solved.hopf", [("W", 1), ("W", 2)], True),
], ids=["U(heisenberg)", "B(1)", "E"])
def test_bialgebra_stage_expands_only_what_no_proof_covers(
        path, legs, multiplies, monkeypatch):
    H = _confluent(path)()
    applied = _watch(monkeypatch, TensorElement, "apply_to_leg")
    multiplied = _watch(monkeypatch, tensor, "tensor_multiply")
    assert verify_bialgebra(H).passed
    assert [(t, leg) for t, leg, _ in applied] == [
        (H.coproduct(H.gen(g)), leg) for g, leg in legs]
    assert bool(multiplied) == multiplies
    if H._antipode is None:
        solve_antipode(H)
    defects = _watch(monkeypatch, H._antipode, "relation_defects")
    assert verify_hopf(H).passed and not defects


# -- the antipode on demand ---------------------------------------------------

@pytest.mark.parametrize("make", ORACLE_HOSTS)
def test_images_filled_on_demand_equal_the_eager_recursion(make):
    H = make()
    passed = certify(H).passed  # the builtins' builders have certified
    assert passed == (H.name not in {"Bad", "jacobi_fails", "weyl",
                                     "not_coassociative", "B1_wrong_antipode",
                                     "negative_control"}), H.name
    if H._antipode is None or not verify_hopf(H).passed:
        return  # no antipode, or attached data that fails its check
    pres = H.presentation
    S = H._antipode.images
    # E, e_solved.hopf, negative_control.hopf and O(U_5) carry no data
    assert isinstance(S, _ConvolutionInverse) == (
        H.name[0] in "EO" or H.name == "negative_control"), H.name
    if isinstance(S, _ConvolutionInverse):  # certification filled none
        assert S == {} and H._antipode.memo == {}
    heaviest_first = sorted(range(pres.ngens), key=lambda k: -pres.weights[k])
    eager = antipode_images_by_recursion(H, 2)
    assert [H.antipode(pres.gen(i)) for i in heaviest_first] == \
        [eager[i] for i in heaviest_first]
    assert S == eager
    if passed:  # S^-1 needs the filtration certificate
        eager = antipode_images_by_recursion(H, 1)
        assert [H.antipode_inverse(pres.gen(i)) for i in heaviest_first] == \
            [eager[i] for i in heaviest_first]
        assert isinstance(H._antipode_inverse.images, _ConvolutionInverse)
        assert H._antipode_inverse.images == eager


@pytest.mark.parametrize("make", [
    lambda: build_algebra(parse((ROOT / "bench/data/e_solved.hopf").read_text()))[0],
    lambda: build_algebra(parse(
        (ROOT / "bench/data/negative_control.hopf").read_text()))[0],
    lambda: _unitriangular(5), lambda: _unitriangular(7)],
    ids=["E", "negative control", "O(U_5)", "O(U_7)"])
def test_certify_without_antipode_data_computes_no_image(make, count_calls):
    H = make()
    assert H._antipode is None
    calls = count_calls(tensor, "contract")
    certify(H)
    assert calls == [] and H._antipode is not None
    assert H._antipode.images == {} and H._antipode.memo == {}
    assert all(c.passed for c in H._convolution.checks)


def test_solve_antipode_returns_every_generator_image():
    E = build_algebra(parse((ROOT / "bench/data/e_solved.hopf").read_text()))[0]
    for H in (E, _unitriangular(5)):
        assert certify(H).passed
        assert H._antipode.images == {}  # certification forced none
        images, names = solve_antipode(H), H.presentation.names
        assert list(images) == list(names)
        assert images == {g: H.antipode(H.gen(g)) for g in names}


def test_attached_weight_one_data_is_compared_directly(count_calls):
    # U(heisenberg)'s generators have weight 1: no reduced coproduct
    H, _ = build_algebra(parse(
        (ROOT / "bench/data/heisenberg.hopf").read_text()))
    H.presentation.certify()
    calls = count_calls(PresentedHopfAlgebra, "reduced_coproduct")
    solve_antipode(H)
    assert calls == [] and verify_hopf(H).passed


@pytest.mark.parametrize("path", ["bench/data/heisenberg.hopf",
                                  "tests/data/b_lambda.hopf",
                                  "tests/data/wrong_antipode.hopf"])
def test_attached_data_is_checked_without_a_fill(path, count_calls):
    # the recursion reads the data's own images; no on-demand map is built
    H = _confluent(path)()
    built = count_calls(_ConvolutionInverse, "__init__")
    report = verify_hopf(H)
    assert built == [] and type(H._antipode.images) is dict
    assert report.passed == (path != "tests/data/wrong_antipode.hopf")
