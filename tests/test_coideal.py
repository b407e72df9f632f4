import ast
import io
import random
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

from hopfforge import algebra, catalog, coideal
from hopfforge.algebra import GeneratorMap, Presentation
from hopfforge.coideal import (RegistrationError, SubalgebraSpec,
                               antipode_image, coideal_check,
                               containment_check, full_subalgebra,
                               is_hopf_subalgebra, primitive_of_coideal,
                               register_subalgebra, spans_equal)
from hopfforge.grading import Signature, certify
from hopfforge.hopf import PresentedHopfAlgebra
from hopfforge.nakayama import counit_character
from hopfforge.parser import build_algebra, parse, sub_arguments
from hopfforge.report import Report

from oracles import (antipode_image_by_registration, coinvariants,
                     membership_by_cutoff, monomials_up_to)
from suites import random_element
from test_grading import _unitriangular

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


def _registered_as(spec, side):
    """spec's presentation and embedding registered anew on its host, with
    the given side declared."""
    pres = spec.presentation
    return register_subalgebra(
        spec.host, spec.name, list(zip(pres.names, pres.weights)),
        {(pres.names[j], pres.names[i]): dict(terms)
         for (j, i), terms in pres.table.items()},
        dict(spec.embedding), side)


def test_querying_the_other_side_keeps_the_declared_certificate():
    spec = catalog.build_b_coideal(1, "L", "inf")
    declared = spec.coideal_report
    with pytest.raises(RegistrationError, match="declared side 'right' fails"):
        _registered_as(spec, "right")
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
                        {"Y": H.gen("Y"), "Z": H.gen("Z")}, "left")
    assert len(calls) == 1


def test_register_rejects_wrong_weight():
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError, match="reweight Z to 2"):
        register_subalgebra(H, "bad", [("Z", 1)], {},
                            {"Z": H.gen("Z")}, "left")


def test_register_rejects_broken_relation():
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError, match="respect the relations"):
        register_subalgebra(
            H, "bad", [("Y", 1), ("Z", 2)],
            {("Z", "Y"): {(2, 0): 1}},  # wrong coefficient
            {"Y": H.gen("Y"), "Z": H.gen("Z")}, "left")


def test_register_rejects_dependent_generators():
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError, match="dependent"):
        register_subalgebra(
            H, "bad", [("A", 1), ("B", 1)], {},
            {"A": H.gen("Y"), "B": H.gen("Y") * 2}, "left")


def test_register_rejects_dependent_leading_symbols():
    # A = X1 and B = X1^2 + X2 generate all of U(abelian2), but their
    # leading symbols X1 and X1^2 are algebraically dependent: the ordered
    # monomials A^a B^b are no basis, and the signature would read (1, 2)
    H = catalog.build_enveloping_preset("abelian2")
    X1, X2 = H.gen("X1"), H.gen("X2")
    with pytest.raises(RegistrationError, match="not certified independent"):
        register_subalgebra(H, "T", [("A", 1), ("B", 2)], {},
                            {"A": X1, "B": X1 ** 2 + X2}, "hopf")


@pytest.mark.parametrize("gens,table,failing", [
    # B(1)'s table with [Z,Y] broken, as in tests/data/bad_overlap.hopf
    ([("X", 1), ("Y", 1), ("Z", 2)],
     {("Y", "X"): {(0, 1, 0): -1}, ("Z", "X"): {(0, 0, 1): -1, (0, 1, 0): 1},
      ("Z", "Y"): {(0, 2, 0): 1, (1, 0, 0): 1}}, "overlap (Z,Y,X)"),
    # Y*Z weighs 3 = w_Z + w_Y, so rewriting need not stop
    ([("Y", 1), ("Z", 2)], {("Z", "Y"): {(1, 1): 1}}, "[Z,Y]"),
], ids=["failing overlap", "entry as heavy as its pair"])
def test_register_rejects_a_presentation_that_is_not_confluent(gens, table,
                                                               failing):
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError) as exc:
        register_subalgebra(H, "T", gens, table,
                            {g: H.gen(g) for g, _ in gens}, "hopf")
    assert str(exc.value) == ("T: subalgebra presentation is not "
                              f"confluent/terminating: {failing}")


def test_register_rejects_a_generator_that_embeds_to_zero():
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError,
                       match="^T: generator Y embeds to zero$"):
        register_subalgebra(H, "T", [("Y", 1)], {}, {"Y": H.zero()}, "left")


def test_register_rejects_a_side_that_fails():
    # L_inf is a left coideal: Delta(Z) has the right leg Y beside X
    H = catalog.build_b_lambda(1)
    with pytest.raises(RegistrationError) as exc:
        register_subalgebra(H, "L", [("Y", 1), ("Z", 2)],
                            {("Z", "Y"): {(2, 0): F(1, 2)}},
                            {"Y": H.gen("Y"), "Z": H.gen("Z")}, "right")
    assert str(exc.value) == (
        "L: declared side 'right' fails: right legs of coproduct(Z) lie in "
        "the span (offending term (X)@Y)")


def test_coideal_sides():
    Linf = catalog.build_b_coideal(1, "L", "inf")
    assert coideal_check(Linf).passed and Linf.side == "left"
    assert _registered_as(Linf, "left").coideal_report.passed
    with pytest.raises(RegistrationError, match=r"right legs .*\(X\)@Y"):
        _registered_as(Linf, "right")
    Rinf = catalog.build_b_coideal(1, "R", "inf")
    assert coideal_check(Rinf).passed and Rinf.side == "right"
    with pytest.raises(RegistrationError, match="declared side 'left' fails"):
        _registered_as(Rinf, "left")


def test_coideal_check_second_legs_of_l_inf():
    # second legs of the coproduct of Z stay inside k<Y,Z>
    Linf = catalog.build_b_coideal(1, "L", "inf")
    H = Linf.host
    t = H.coproduct(Linf.embed_generator("Z"))
    cofactors = dict((str(H.presentation.monomial(m)), cof)
                      for m, cof in t.leg_cofactors(1))
    assert set(cofactors) == {"1", "X", "Z"}
    for cof in cofactors.values():
        assert Linf.contains(cof)


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
    t_monos = monomials_up_to(Linf.presentation, 3)
    assert len(basis) == len(t_monos)
    for e in basis:
        assert Linf.contains(e)


def test_coinvariants_trivial_cases():
    H = catalog.build_b_lambda(1)
    # the whole algebra: the quotient is by the augmentation ideal, and
    # every element is coinvariant
    full = full_subalgebra(H)
    basis = coinvariants(H, full, 2)
    assert len(basis) == len(monomials_up_to(H.presentation, 2))
    # the trivial subalgebra: only scalars are coinvariant
    trivial = register_subalgebra(H, "k", [], {}, {}, "left")
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


def test_membership_is_exact_past_the_truncation():
    # the host is certified to order 6; membership has no cutoff
    Linf = catalog.build_b_coideal(1, "L", "inf")
    H = Linf.host
    X, Z = H.gen("X"), H.gen("Z")
    assert H.filtration.truncation == 6
    assert (Z ** 4).weight == 8 and Linf.contains(Z ** 4)
    assert str(Linf.represent(Z ** 4)) == "Z^4"
    for outside in (X * Z ** 3, Z ** 4 + X * Z ** 3):
        assert not Linf.contains(outside)
        assert Linf.represent(outside) is None
    assert (Z ** 4 + X * Z ** 3).weight == 8


def test_integer_generator_keys_are_range_checked():
    H = catalog.build_b_lambda(1)
    X, Y = H.gen("X"), H.gen("Y")
    for stray in (7, -1):
        with pytest.raises(ValueError, match=f"index {stray} out of range"):
            register_subalgebra(H, "T", [("Y", 1)], {}, {0: Y, stray: X}, "hopf")
    T = register_subalgebra(H, "T", [("Y", 1)], {}, {0: Y}, "hopf")
    assert T.embed_generator(0) == T.embed_generator("Y") == Y
    with pytest.raises(ValueError, match="out of range"):
        T.embed_generator(-1)
    with pytest.raises(ValueError, match="out of range"):
        counit_character(T).value(5)


def test_coideal_check_rejects_an_unknown_side():
    Linf = catalog.build_b_coideal(1, "L", "inf")
    with pytest.raises(ValueError, match="side must be left, right or hopf"):
        _registered_as(Linf, "bogus")


def test_containment_checks_each_generator_once(monkeypatch):
    Linf = catalog.build_b_coideal(1, "L", "inf")
    contains, calls = SubalgebraSpec.contains, []
    monkeypatch.setattr(SubalgebraSpec, "contains", lambda spec, *args: (
        calls.append(spec) or contains(spec, *args)))
    report = containment_check(Linf, Linf)
    assert report.passed and any("equality" in c.name for c in report.checks)
    assert len(calls) == 4  # L_inf in L_inf, then the converse


# every catalog coideal of B(lam), with the family its antipode image spans
_B_FAMILIES = ([(which, beta, {"L": "R", "R": "L"}[which], beta)
                for which in ("L", "R") for beta in (0, 1, F(1, 2), -2, "inf")]
               + [("g_alpha", 3, "g_alpha", 3), ("g_inf", None, "g_inf", None)])


def _assert_opposite_presentation(T, S):
    """S lists T's generators in reverse, with T's table entries read
    backwards, and embeds them by the host antipode."""
    pres, op = T.presentation, S.presentation
    last = pres.ngens - 1
    assert op.names == pres.names[::-1] and op.weights == pres.weights[::-1]
    assert op.table == {(last - i, last - j): {m[::-1]: c for m, c in t.items()}
                        for (j, i), t in pres.table.items()}
    for i in range(pres.ngens):
        assert S.embedding[last - i] == T.host.antipode(T.embedding[i])
    assert S.side == {"left": "right", "right": "left", "hopf": "hopf"}[T.side]


@pytest.mark.parametrize("lam", [0, 1, F(1, 2), -2], ids=str)
def test_antipode_image_is_the_opposite_presentation_on_b(lam):
    for which, param, image_which, image_param in _B_FAMILIES:
        T = catalog.build_b_coideal(lam, which, param)
        S = antipode_image(T)
        _assert_opposite_presentation(T, S)
        assert spans_equal(S, catalog.build_b_coideal(lam, image_which,
                                                      image_param))
        assert spans_equal(antipode_image(S), T)


def test_antipode_image_is_the_opposite_presentation_on_e():
    T = catalog.build_e_coideal()
    H = T.host
    X, Y, Z, W = (H.gen(g) for g in ("X", "Y", "Z", "W"))
    S = antipode_image(T)
    _assert_opposite_presentation(T, S)
    # S(W - X*Z) = -(W + X*Z); U = W + X*Z acts on k[X,Y] by X -> X + X^2,
    # Y -> X
    expected = register_subalgebra(
        H, "S(T) by hand", [("X", 1), ("Y", 1), ("U", 3)],
        {("U", "X"): {(1, 0, 0): 1, (2, 0, 0): 1}, ("U", "Y"): {(1, 0, 0): 1}},
        {"X": X, "Y": Y, "U": W + X * Z}, "left")
    assert spans_equal(S, expected)
    assert spans_equal(antipode_image(S), T)


def _unitriangular_coideals(n):
    """The last column of O(U_n), a left coideal subalgebra, and its first
    row, a right one: Delta(x_ij) = sum_k x_ik @ x_kj."""
    H = _unitriangular(n)
    assert certify(H, n - 1).passed
    column = [(i, n) for i in range(n - 1, 0, -1)]
    row = [(1, j) for j in range(2, n + 1)]
    return [register_subalgebra(
        H, name, [(f"x{i}{j}", j - i) for i, j in cells], {},
        {f"x{i}{j}": H.gen(f"x{i}{j}") for i, j in cells}, side)
            for name, cells, side in (("column", column, "left"),
                                      ("row", row, "right"))]


def _antipode_image_sources():
    specs = _catalog_and_data_coideals()
    specs += _unitriangular_coideals(6) + _unitriangular_coideals(8)
    hosts = [catalog.build_b_lambda(lam) for lam in (0, 1, F(1, 2), -2)]
    hosts += [catalog.build_e(), catalog.build_enveloping_preset("heisenberg")]
    U5 = _unitriangular(5)
    assert certify(U5, 4).passed
    return specs + [full_subalgebra(H) for H in hosts + [U5]]


def test_antipode_image_matches_registration():
    """S(T) by proof against S(T) registered anew: the same presentation,
    images and side, and the same reports, named for S(T), line for line;
    the registration's lines all pass, as S(T)'s do by proof."""
    specs = _antipode_image_sources()
    assert len(specs) == 65
    for T in specs:
        S, oracle = antipode_image(T), antipode_image_by_registration(T)
        op, ref = S.presentation, oracle.presentation
        assert (op.names, op.weights, op.table) == \
            (ref.names, ref.weights, ref.table), T.name
        assert S.embedding == oracle.embedding and S.side == oracle.side
        assert oracle.morphism_report.passed and oracle.coideal_report.passed
        assert coideal_check(S).passed, T.name
        for report in ("morphism_report", "coideal_report"):
            got, ref = getattr(S, report), getattr(oracle, report)
            assert got.name == ref.name and got.name.startswith(S.name)
            assert [(c.name, c.passed) for c in got.checks] == \
                [(c.name, c.passed) for c in ref.checks], T.name
        assert op.certificate is T.presentation.certificate
        assert spans_equal(antipode_image(S), T), T.name


def test_antipode_image_computes_no_certificate(count_calls):
    specs = [catalog.build_b_coideal(1, "L", "inf"), catalog.build_e_coideal(),
             *_unitriangular_coideals(6)]
    calls = {name: count_calls(owner, name) for owner, name in (
        (PresentedHopfAlgebra, "coproduct"),
        (PresentedHopfAlgebra, "coradical_degree"),
        (Presentation, "certify"), (algebra, "check_confluence"),
        (GeneratorMap, "relation_defects"), (coideal, "_symbol_rank"),
        (coideal, "coideal_check"), (coideal, "register_subalgebra"))}
    for T in specs:
        antipode_image(antipode_image(T))
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)


def _calls_by_owner(path):
    """(Class.method or function, source) of every isinstance call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", None) == "isinstance":
                found.append((owner, ast.unparse(child)))
            visit(child, owner)
    visit(ast.parse(path.read_text()), "")
    return found


def test_one_subalgebra_object_and_one_target_protocol():
    # hopf and nakayama ask the target, never which kind it is, and a
    # generator key resolves only through Presentation.index
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    offenders, owners = [], {}
    for path in sorted(src.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(bad in line for bad in
                   ("_EmbeddedSpan", ".span.", "getattr(target,")):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        for owner, call in _calls_by_owner(path):
            owners.setdefault(call, set()).add(f"{path.name}:{owner}")
    assert not offenders, "\n".join(offenders)
    assert owners["isinstance(target, SubalgebraSpec)"] == {"nakayama.py:winding"}
    assert owners["isinstance(g, int)"] == {"algebra.py:Presentation._resolve"}


def test_a_second_embedding_key_for_one_generator_is_rejected():
    H = catalog.build_b_lambda(1)
    X, Y = H.gen("X"), H.gen("Y")
    with pytest.raises(ValueError, match="generator Y is given twice"):
        register_subalgebra(H, "T", [("Y", 1)], {}, {0: X, "Y": Y}, "hopf")
    with pytest.raises(ValueError, match="generator Y is given twice"):
        register_subalgebra(H, "T", [("Y", 1)], {}, {"Y": Y, 0: X}, "hopf")


def _catalog_and_data_coideals():
    specs = [catalog.build_b_coideal(lam, which, param)
             for lam in (0, 1, F(1, 2), -2) for which, param, _, _ in _B_FAMILIES]
    specs += [catalog.build_e_coideal(), catalog.build_e_coideal(3, -1, 1, 0)]
    root = Path(__file__).parent.parent
    for path in (root / "tests" / "data" / "b_lambda.hopf",
                 root / "bench" / "data" / "b_half.hopf"):
        H, blocks = build_algebra(parse(path.read_text()))
        assert certify(H, 6).passed
        specs += [register_subalgebra(**sub_arguments(H, b)) for b in blocks]
    return specs


def test_membership_matches_the_cutoff_solver():
    rng = random.Random(17)
    specs = _catalog_and_data_coideals()
    assert len(specs) == 4 * len(_B_FAMILIES) + 2 + 4
    for spec in specs:
        host = spec.host.presentation
        oracle = membership_by_cutoff(spec, 7)
        outside = [host.monomial(m) for m in monomials_up_to(host, 4)
                   if oracle(host.monomial(m)) is None]
        assert outside, spec.name
        for _ in range(6):
            x = random_element(rng, spec.presentation, nonzero=True)
            member = spec.embed(x)
            assert spec.contains(member)
            assert spec.represent(member) == oracle(member) == x
            other = member + outside[rng.randrange(len(outside))]
            assert not spec.contains(other)
            assert spec.represent(other) is oracle(other) is None


# a membership cutoff, a per-weight solver cache, or a max_weight on the
# target questions: what the symbol certificate made unnecessary
_CUTOFF_NAME = re.compile(r"\b(cutoff|_solvers)\b")


def _cutoff_offenders(source: str, names: bool) -> list[str]:
    found = []
    if names:
        found += [f"{tok.start[0]}: {tok.line.strip()}" for tok in
                  tokenize.generate_tokens(io.StringIO(source).readline)
                  if tok.type == tokenize.NAME
                  and _CUTOFF_NAME.fullmatch(tok.string)]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) \
                and node.name in ("contains", "represent") \
                and "max_weight" in [a.arg for a in node.args.args]:
            found.append(f"{node.lineno}: {node.name} takes max_weight")
    return found


def test_cutoff_guard_flags_the_old_membership_path():
    for line in ("spec.cutoff = cutoff\n",
                 "self._solvers[max_weight] = (solver, monomials)\n",
                 "register_subalgebra(**sub_arguments(self.H, block), "
                 "cutoff=self.truncation)\n",
                 "def full_subalgebra(H, cutoff=None):\n    pass\n"):
        assert _cutoff_offenders(line, names=True), line
    for line in ("def contains(self, h, max_weight=None):\n    pass\n",
                 "def represent(self, h, max_weight):\n    return h\n"):
        assert _cutoff_offenders(line, names=False), line
    for line in ('raise RegistrationError(f"{name}: image of {g} exceeds '
                 'the certification cutoff")\n',
                 "def coinvariants(H, spec, weight_cutoff):\n    pass\n",
                 "# no cutoff in a comment\n",
                 "def represent(self, h):\n    return h\n"):
        assert not _cutoff_offenders(line, names=True), line


def test_membership_has_no_cutoff():
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    offenders = []
    for path in sorted(src.glob("*.py")):
        names = path.name in ("coideal.py", "catalog.py", "cli.py")
        offenders += [f"{path.name}:{hit}" for hit in
                      _cutoff_offenders(path.read_text(), names)]
    assert not offenders, "membership is exact at every weight:\n" + \
        "\n".join(offenders)
