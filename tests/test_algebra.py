import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from hopfforge import algebra, catalog
from hopfforge.algebra import (GeneratorMap, Presentation,
                               PresentationMismatchError, check_confluence,
                               check_termination_weights, commutator)
from hopfforge.linalg import split
from hopfforge.nakayama import Character
from hopfforge.parser import build_algebra, parse, sub_arguments
from hopfforge.tensor import contract, tensor_multiply, tensor_product

from oracles import monomials_up_to, overlap_checks_by_resolution

DATA = Path(__file__).parent / "data"


def b_presentation(lam=1):
    return catalog.build_b_lambda(lam).presentation


def test_reduce_misordered_pair():
    pres = b_presentation(1)
    X, Y = pres.gen("X"), pres.gen("Y")
    assert Y * X == X * Y - Y


def test_reduce_z_y():
    pres = b_presentation(1)
    Y, Z = pres.gen("Y"), pres.gen("Z")
    assert Z * Y == Y * Z + Y * Y * Fraction(1, 2)


def test_reduce_ordered_word_is_fixed_point():
    pres = b_presentation(1)
    word = (0, 0, 1, 2)  # X X Y Z, already ascending
    assert pres.reduce_word(word) == {(2, 1, 1): Fraction(1)}


def test_multiply_z_x_at_lambda_zero():
    pres = b_presentation(0)
    X, Z = pres.gen("X"), pres.gen("Z")
    assert Z * X == X * Z - Z


def test_unit_law():
    pres = b_presentation(1)
    a = pres.gen("X") * 3 + pres.gen("Z") * Fraction(-1, 2) + 1
    assert pres.one() * a == a
    assert a * pres.one() == a


def test_both_association_orders_agree():
    pres = b_presentation(1)
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    assert (Z * Y) * X == Z * (Y * X)


def test_commutator_in_e_matches_derivation():
    E = catalog.build_e(a=2, b=5)
    pres = E.presentation
    X, Z, W = pres.gen("X"), pres.gen("Z"), pres.gen("W")
    assert commutator(W - X * Z, X) == X * 2 - X * X


def test_commutator_antisymmetry():
    pres = b_presentation(1)
    a = pres.gen("X") + pres.gen("Z") * 2
    assert not commutator(a, a)


def test_commutator_w_y_in_b():
    pres = b_presentation(1)
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    assert commutator(Z - X * Y, Y) == Y * Y * Fraction(-1, 2)


def test_termination_weights_pass_for_catalog():
    assert check_termination_weights(b_presentation(1)).passed
    assert check_termination_weights(catalog.build_e().presentation).passed


def test_termination_weights_violation_reported():
    pres = Presentation([("a", 1), ("b", 1)], {("b", "a"): {(1, 1): 1}})
    report = check_termination_weights(pres)
    assert not report.passed
    assert any("[b,a]" in c.name for c in report.failures())


def test_confluence_reports_nontermination_without_raising():
    pres = Presentation([("a", 1), ("b", 1)], {("b", "a"): {(1, 1): 1}})
    report = check_confluence(pres)
    assert [c.name for c in report.failures()] == ["[b,a]"]
    assert not any(c.name.startswith("overlap") for c in report.checks)
    assert not pres.certify().passed
    assert pres.certificate is None  # a failing report is not kept


def test_presentation_keeps_only_a_passing_certificate(count_calls):
    pres = Presentation([("x", 1), ("y", 1), ("z", 1)],
                        {("y", "x"): {(0, 0, 1): -1}})
    calls = count_calls(algebra, "check_confluence")
    report = pres.certify()
    assert report.passed and pres.certificate is report
    assert pres.certify() is report and len(calls) == 1


_PRESENTATION_CHECK = re.compile(r"\bcheck_(confluence|termination_weights)\(")


def test_presentation_checks_run_only_in_algebra():
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _PRESENTATION_CHECK.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, \
        "use Presentation.certify() for the presentation certificate:\n" + \
        "\n".join(offenders)


def _product_terms_readers(source: str) -> set[str]:
    """The innermost function (or <module>) around each read of
    .product_terms in the source."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "attr", None) == "product_terms":
                found.add(where)
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else where)
    visit(ast.parse(source), "<module>")
    return found


def test_product_terms_guard_flags_the_old_code():
    old_mul = ("def __mul__(self, other):\n"
               "    product = self.algebra.product_terms\n")
    old_contract = ("def contract(t):\n"
                    "    product, monos = t.algebra.product_terms, t.algebra.monos\n")
    new_fill = ("def product_ids(self, key):\n"
                "    nums, den = self.product_terms(self.monos[i], self.monos[j])\n")
    assert _product_terms_readers(old_mul) == {"__mul__"}
    assert _product_terms_readers(old_contract) == {"contract"}
    assert _product_terms_readers(new_fill) == {"product_ids"}


def test_one_product_memo_per_presentation():
    """Only product_ids, the memo-miss branch, calls product_terms; products
    of every kind grow no presentation attribute but the one memo
    id_products (_prod_cache is its alias) and the monomial numbering
    (monos and its weight table id_weights)."""
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    readers = {path.stem: _product_terms_readers(path.read_text())
               for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in readers.items() if found} \
        == {"algebra": {"product_ids"}}
    pres = Presentation([("x", 1), ("y", 1), ("z", 1)],
                        {("y", "x"): {(0, 0, 1): Fraction(1, 2)}})
    x, y, z = (pres.gen(g) for g in "xyz")
    sizes = lambda: {name: len(value) for name, value in vars(pres).items()
                     if isinstance(value, (dict, list))}
    before = sizes()
    s, t = tensor_product(y * y, x + z), tensor_product(x, y * x)
    assert contract(tensor_multiply(s, t)) == (y * y * x) * ((x + z) * y * x)
    assert {name for name, n in sizes().items() if n > before[name]} \
        == {"id_products", "_prod_cache", "monos", "id_weights"}
    assert pres._prod_cache is pres.id_products


def test_reads_number_no_monomial():
    """coefficient, constant_term, weight, == with a scalar and str look
    ids up; none numbers a monomial it has not met."""
    pres = Presentation([("x", 1), ("y", 1), ("z", 2)],
                        {("y", "x"): {(0, 0, 1): Fraction(1, 2)}})
    x, y = pres.gen("x"), pres.gen("y")
    a = x * y - Fraction(1, 3) * x
    b = Fraction(2, 5) * y * x
    seen = list(pres.monos)
    assert pres.find_id(pres.identity_monomial()) is None
    assert [a.coefficient(m) for m in ((1, 1, 0), (1, 0, 0), (0, 0, 3),
                                       (2, 0, 0))] == [1, Fraction(-1, 3), 0, 0]
    assert a.constant_term() == 0 == b.constant_term()
    assert (a.weight, b.weight) == (2, 2)
    assert a != 0 and a != 1 and not a == Fraction(1, 2) and not b == 0
    assert str(a) == "x*y - 1/3*x" and str(b) == "2/5*x*y + 1/5*z"
    assert pres.monos == seen
    assert pres.id_weights == [pres.monomial_weight(m) for m in seen]
    # scalars compare as multiples of 1 once it is numbered
    one = pres.one()
    assert one * Fraction(3, 4) == Fraction(3, 4) and pres.zero() == 0
    assert one != 2 and one + x != 1


def test_confluence_b_lambda():
    report = check_confluence(b_presentation(1))
    assert report.passed
    assert any("(Z,Y,X)" in c.name for c in report.checks)


def test_confluence_is_jacobi_for_linear_brackets():
    # [y,x] = -z, [z,x] = 0, [z,y] = 0 is the two-step nilpotent algebra: fine
    good = Presentation([("x", 1), ("y", 1), ("z", 1)],
                        {("y", "x"): {(0, 0, 1): -1}})
    assert check_confluence(good).passed
    # breaking one bracket breaks the triple resolution
    bad = Presentation([("x", 1), ("y", 1), ("z", 1)],
                       {("y", "x"): {(0, 0, 1): -1},
                        ("z", "x"): {(0, 1, 0): 1},
                        ("z", "y"): {(0, 1, 0): 1}})
    assert not check_confluence(bad).passed


def test_confluence_broken_b_reports_triple_and_difference():
    pres = Presentation([("X", 1), ("Y", 1), ("Z", 2)], {
        ("Y", "X"): {(0, 1, 0): -1},
        ("Z", "X"): {(0, 0, 1): -1, (0, 1, 0): 1},
        ("Z", "Y"): {(0, 2, 0): 1, (1, 0, 0): 1},  # Y^2 + X instead of Y^2/2
    })
    report = check_confluence(pres)
    failures = report.failures()
    assert len(failures) == 1
    assert "(Z,Y,X)" in failures[0].name
    # the two resolutions differ by exactly 2*X (worked out by hand)
    assert failures[0].details == "normal forms differ by 2*X"


def test_mismatched_presentations_error():
    a = b_presentation(0).gen("X")
    b = b_presentation(1).gen("X")
    with pytest.raises(PresentationMismatchError):
        a * b


def test_weight_of_zero_is_none():
    pres = b_presentation(1)
    assert pres.zero().weight is None
    assert (pres.gen("X") - pres.gen("X")).weight is None


def test_normal_form_idempotent_on_random_words():
    pres = b_presentation(1)
    rng = random.Random(7)
    for _ in range(120):
        word = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
        once = pres.reduce_word(word)
        # reducing each produced monomial again must leave it unchanged
        again = {}
        for mono, c in once.items():
            for m2, c2 in pres.reduce_word(pres.word_of(mono)).items():
                again[m2] = again.get(m2, 0) + c * c2
        assert {m: c for m, c in again.items() if c} == once


def test_associativity_random():
    pres = catalog.build_e().presentation
    rng = random.Random(11)
    monos = monomials_up_to(pres, 3)
    def rand():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            terms[monos[rng.randrange(len(monos))]] = Fraction(rng.randint(-3, 3))
        return pres.element(terms)
    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)


def test_weight_submultiplicative():
    pres = b_presentation(1)
    rng = random.Random(13)
    monos = monomials_up_to(pres, 5)
    for _ in range(150):
        m1 = monos[rng.randrange(len(monos))]
        m2 = monos[rng.randrange(len(monos))]
        a, b = pres.monomial(m1), pres.monomial(m2)
        w = (a * b).weight
        assert w is not None
        assert w <= pres.monomial_weight(m1) + pres.monomial_weight(m2)
        # leading monomials concatenate to an ordered monomial: equality
        assert w == pres.monomial_weight(m1) + pres.monomial_weight(m2)


def test_element_str_round_readability():
    pres = b_presentation(1)
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    assert str(Z - Y) == "Z - Y"
    assert str(-Z + X * Y) == "X*Y - Z"
    assert str(Y * Y * Fraction(1, 2)) == "1/2*Y^2"
    assert str(pres.zero()) == "0"


def test_element_str_of_scalars():
    pres = b_presentation(1)
    assert str(pres.scalar(Fraction(-3, 2))) == "-3/2"
    assert str(pres.scalar(-1)) == "-1"
    assert str(pres.gen("X") - 2) == "X - 2"


def _confluence_presentations():
    """Every builtin host and subalgebra presentation, every tests/data
    host and sub block, three failing triples, and O(U_5) (commutative,
    x_ij of weight j - i) last."""
    hosts = [catalog.build_b_lambda(lam) for lam in (0, 1, -2, Fraction(1, 2))]
    hosts.append(catalog.build_e())
    hosts += [catalog.build_enveloping_preset(p)
              for p in catalog.ENVELOPING_PRESETS]
    subs = [catalog.build_b_coideal(1, which, param)
            for which, param in (("L", "inf"), ("R", "inf"), ("L", 0),
                                 ("R", Fraction(1, 2)), ("g_alpha", 3),
                                 ("g_inf", None))]
    subs.append(catalog.build_e_coideal())
    out = [H.presentation for H in hosts] + [s.presentation for s in subs]
    for path in sorted(DATA.glob("*.hopf")):
        H, blocks = build_algebra(parse(path.read_text()))
        out.append(H.presentation)
        for block in blocks:
            args = sub_arguments(H, block)
            out.append(Presentation(args["generators"], args["commutators"]))
    # (c,b,a) fails with a single noncommuting pair, each pair in turn
    for pair, third in (("cb", "a"), ("ba", "c"), ("ca", "b")):
        out.append(Presentation([(g, 1) for g in "abcd"], {
            tuple(pair): {(0, 0, 0, 1): 1},
            ("d", third): {tuple(int(g == third) for g in "abcd"): 1}}))
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    out.append(Presentation([(f"x{i}{j}", j - i) for i, j in pairs]))
    return out


def test_trivial_overlaps_match_the_full_resolution():
    presentations = _confluence_presentations()
    assert all("overlap (c,b,a)" in [c.name for c in
                                     check_confluence(p).failures()]
               for p in presentations[-4:-1])
    for pres in presentations:
        report = check_confluence(pres)
        assert [(c.name, c.passed, c.details) for c in report.checks
                if c.name.startswith("overlap")] \
            == overlap_checks_by_resolution(pres)


def _calls(tree: ast.AST, function: str) -> set[str]:
    """Names called (as f(...) or obj.f(...)) in the named function."""
    fn, = [n for n in ast.walk(tree)
           if isinstance(n, ast.FunctionDef) and n.name == function]
    return {getattr(c.func, "id", getattr(c.func, "attr", None))
            for c in ast.walk(fn) if isinstance(c, ast.Call)}


def _second_engines(algebra_source: str, linalg_source: str) -> list[str]:
    """Each job done beside its engine: overlaps resolved without the
    normal-form product, or an elimination over Q besides LinearSolver."""
    found = sorted(_calls(ast.parse(algebra_source), "check_confluence")
                   & {"reduce_word", "vec_add_scaled"})
    tree = ast.parse(linalg_source)
    if "LinearSolver" not in _calls(tree, "rref"):
        found.append("rref eliminates by itself")
    found += [n.name for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == "_pivot_size"]
    return found


def test_second_engine_guard_flags_the_old_code():
    old_confluence = (
        "def check_confluence(pres):\n"
        "    via_left = pres.reduce_word((j, k, i))\n"
        "    for mono, c in pres.table.get((k, j), {}).items():\n"
        "        vec_add_scaled(via_left, pres.reduce_word("
        "pres.word_of(mono) + (i,), c))\n")
    old_rref = (
        "def _pivot_size(value):\n"
        "    return abs(value.numerator).bit_length() + "
        "value.denominator.bit_length()\n"
        "def rref(rows, ncols):\n"
        "    work = [{j: v for j, v in r.items() if v} for r in rows]\n"
        "    size = _pivot_size(v)\n")
    new_confluence = ("def check_confluence(pres):\n"
                      "    delta = (x_k * x_j) * x_i - x_k * (x_j * x_i)\n")
    new_rref = ("def rref(rows, ncols):\n"
                "    solver = LinearSolver([dict(row) for row in rows])\n")
    assert _second_engines(old_confluence, new_rref) \
        == ["reduce_word", "vec_add_scaled"]
    assert _second_engines(new_confluence, old_rref) \
        == ["rref eliminates by itself", "_pivot_size"]
    assert _second_engines(new_confluence, new_rref) == []


def test_one_engine_per_job():
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    assert _second_engines((src / "algebra.py").read_text(),
                           (src / "linalg.py").read_text()) == []


def test_commuting_triples_resolve_without_rewriting(monkeypatch):
    pres = _confluence_presentations()[-1]  # O(U_5): every pair commutes
    calls = []
    reduce_word = Presentation.reduce_word
    monkeypatch.setattr(Presentation, "reduce_word",
                        lambda self, *a, **k: calls.append(a)
                        or reduce_word(self, *a, **k))
    report = check_confluence(pres)
    assert report.passed and len(report.checks) == 1 + 120
    assert calls == []


def test_generator_map_order_of_an_anti_map():
    # S(x) = -x on U(nonabelian2) is an anti-map: S([y,x]) = [S(x), S(y)]
    H = catalog.build_enveloping_preset("nonabelian2")
    pres = H.presentation
    assert pres.table
    images = {i: -pres.gen(i) for i in range(pres.ngens)}
    anti = GeneratorMap(pres, images, pres.one(), True)
    assert [d for _, _, d in anti.relation_defects() if d] == []
    plain = GeneratorMap(pres, images, pres.one(), False)
    defects = [(j, i, d) for j, i, d in plain.relation_defects() if d]
    assert defects and all(d == 2 * pres.commutator_entry(j, i)
                           for j, i, d in defects)
    # the anti-map agrees with the host antipode, peeling the last factor
    x = pres.gen(0) * pres.gen(1) * pres.gen(1)
    assert anti(x) == H.antipode(x) == \
        H.antipode(pres.gen(1)) ** 2 * H.antipode(pres.gen(0))


_PRIVATE_EXTENSIONS = ("_coproduct_monomial", "_antipode_monomial",
                       "_monomial_terms", "_mono_image", "_reduced_mono",
                       "anti_image", "memo_peel")


def test_maps_on_generators_extend_only_in_generator_map():
    # GeneratorMap.monomial is the one extension loop; a character is a
    # GeneratorMap into k
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(name in line for name in _PRIVATE_EXTENSIONS):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert issubclass(Character, GeneratorMap)
    assert not offenders, \
        "extend maps given on generators with algebra.GeneratorMap:\n" + \
        "\n".join(offenders)


def test_a_second_key_for_one_generator_pair_is_rejected():
    with pytest.raises(ValueError, match="generator Y,X is given twice"):
        Presentation([("X", 1), ("Y", 1)],
                     {("Y", "X"): {(1, 0): -1}, (1, 0): {}})
    with pytest.raises(ValueError, match="generator Y,X is given twice"):
        Presentation([("X", 1), ("Y", 1)], {(1, "X"): {}, ("Y", 0): {}})
    pres = Presentation([("X", 1), ("Y", 1)], {(1, "X"): {(1, 0): -1}})
    assert pres.table == {(1, 0): {(1, 0): -1}}
    assert pres.indexed({"Y": "a", 0: "b"}) == {1: "a", 0: "b"}
    with pytest.raises(ValueError, match="generator X is given twice"):
        pres.indexed({"X": 1, 0: 2})


def test_a_commutator_key_must_name_two_generators_in_order():
    gens = [("X", 1), ("Y", 1)]
    with pytest.raises(ValueError, match=r"^commutator \[X,X\] names one "
                       "generator twice$"):
        Presentation(gens, {(0, 0): {}})
    with pytest.raises(ValueError, match=r"^commutator \[X,Y\] must list the "
                       "later generator first$"):
        Presentation(gens, {("X", "Y"): {}})


def _data_presentation(path):
    return lambda: build_algebra(parse(path.read_text()))[0].presentation


def _builtin_presentations():
    from test_grading import _unitriangular
    from test_hopf import _upper_triangular_lie
    return [
        *[pytest.param(lambda lam=lam: b_presentation(lam), id=f"B:{lam}")
          for lam in ("0", "1", "-2", "1/2", "-2/3")],
        pytest.param(lambda: catalog.build_e().presentation, id="E"),
        pytest.param(lambda: catalog.build_e(2, -1, 1, 3).presentation,
                     id="E(2,-1,1,3)"),
        *[pytest.param(lambda p=p: catalog.build_enveloping_preset(p)
                       .presentation, id=f"U:{p}")
          for p in catalog.ENVELOPING_PRESETS],
        *[pytest.param(_data_presentation(path), id=path.name)
          for path in sorted(DATA.glob("*.hopf")) + sorted(
              (DATA.parent.parent / "bench" / "data").glob("*.hopf"))],
        pytest.param(lambda: _unitriangular(5).presentation, id="O(U_5)"),
        pytest.param(lambda: _upper_triangular_lie(5).presentation,
                     id="U(n_5)"),
    ]


@pytest.mark.parametrize("make", _builtin_presentations())
def test_products_are_the_rewriting_of_their_words(make):
    """product_terms (the exponent sum when the table is empty) and the
    product memo on mono ids against reduce_word, on seeded pairs: both
    ascending words and words that need rewriting occur."""
    pres = make()
    rng = random.Random(91)
    monomials = monomials_up_to(pres, 3)
    ascending = set()
    for _ in range(40):
        m1, m2 = rng.choice(monomials), rng.choice(monomials)
        w1, w2 = pres.word_of(m1), pres.word_of(m2)
        ascending.add(not (w1 and w2 and w1[-1] > w2[0]))
        expect = split(pres.reduce_word(w1 + w2))
        assert pres.product_terms(m1, m2) == expect
        nums, den = pres.product_ids(
            pres.mono_id(m1) << algebra.MONO_ID_BITS | pres.mono_id(m2))
        assert ({pres.monos[i]: n for i, n in nums.items()}, den) == expect
    assert ascending == ({True, False} if pres.ngens > 1 else {True})
