from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge import catalog
from hopfforge.grading import certify
from hopfforge.parser import (DefinitionFile, ParseError, SubBlock,
                              build_algebra, format_definition, parse,
                              sub_arguments)

DATA = Path(__file__).parent / "data"

F = Fraction


def shipped_text():
    return (DATA / "b_lambda.hopf").read_text()


def test_shipped_file_matches_catalog_build():
    df = parse(shipped_text())
    H, blocks = build_algebra(df)
    ref = catalog.build_b_lambda(1)
    assert H.presentation.names == ref.presentation.names
    assert H.presentation.weights == ref.presentation.weights
    assert H.presentation.table == ref.presentation.table
    for i in range(3):
        assert H._coproduct.images[i].terms == ref._coproduct.images[i].terms
        assert H._antipode.images[i].terms == ref._antipode.images[i].terms
    assert {b.name for b in blocks} == {"L_inf", "R_inf"}
    # and the parsed data certifies and registers end to end
    assert certify(H, 6).passed
    from hopfforge.coideal import register_subalgebra
    specs = {b.name: register_subalgebra(**sub_arguments(H, b))
             for b in blocks}
    assert specs["L_inf"].coideal_report.passed
    assert specs["R_inf"].coideal_report.passed


def test_round_trip_print_parse():
    df = parse(shipped_text())
    assert parse(format_definition(df)) == df


def test_empty_input_error():
    with pytest.raises(ParseError, match="no algebra header"):
        parse("")
    with pytest.raises(ParseError, match="no algebra header"):
        parse("# only a comment\n\n")


def test_tensor_syntax_rejected_in_relations():
    text = "hopf A\ngen X weight 1\ngen Y weight 1\nrel [Y,X] = X@Y\n"
    with pytest.raises(ParseError, match="tensor syntax not allowed"):
        parse(text)


def test_undeclared_generator():
    text = "hopf A\ngen X weight 1\ncoprod X = 1@X + X@1 + Q@X\n"
    with pytest.raises(ParseError, match="undeclared generator 'Q'"):
        parse(text)


def test_duplicate_declaration():
    text = "hopf A\ngen X weight 1\ngen X weight 2\n"
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse(text)


def test_relation_order_enforced():
    text = ("hopf A\ngen X weight 1\ngen Y weight 1\n"
            "rel [X,Y] = Y\ncoprod X = 1@X + X@1\ncoprod Y = 1@Y + Y@1\n")
    with pytest.raises(ParseError, match="later-declared generator first"):
        parse(text)


def test_counit_must_be_zero():
    text = ("hopf A\ngen X weight 1\ncounit X = 1\ncoprod X = 1@X + X@1\n")
    with pytest.raises(ParseError, match="must be 0"):
        parse(text)


def test_error_carries_location():
    text = "hopf A\ngen X weight 1\nrel [X,X] = $\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 3


def test_rationals_and_powers_parse():
    text = ("hopf A\ngen X weight 1\ngen Y weight 1\n"
            "rel [Y,X] = 2/3*X^2 - Y\n"
            "coprod X = 1@X + X@1\ncoprod Y = 1@Y + Y@1\n")
    df = parse(text)
    (gj, gi, poly), = df.relations
    assert (gj, gi) == ("Y", "X")
    assert poly == {(("X", 2),): F(2, 3), (("Y", 1),): F(-1)}


def test_missing_coproduct_reported():
    text = "hopf A\ngen X weight 1\ngen Y weight 1\ncoprod X = 1@X + X@1\n"
    with pytest.raises(ParseError, match="missing coproduct lines for: Y"):
        parse(text)


def test_unterminated_sub_block():
    text = ("hopf A\ngen X weight 1\ncoprod X = 1@X + X@1\n"
            "sub S side left {\n  gen X weight 1\n")
    with pytest.raises(ParseError, match="unterminated sub block"):
        parse(text)


def test_format_definition_coproduct_line():
    text = shipped_text().replace("coprod Z = 1@Z + X@Y + Z@1",
                                  "coprod Z = Z@1 + 2*Y@X - 1/2*X@Y + 1@Z")
    lines = format_definition(parse(text)).splitlines()
    assert "coprod Z = 1@Z - 1/2*X@Y + 2*Y@X + Z@1" in lines
    assert "coprod X = 1@X + X@1" in lines


def test_coproduct_that_cancels_to_zero_is_rejected():
    # it printed as "coprod X = 0", which is no tensor polynomial
    with pytest.raises(ParseError, match="line 3: coproduct of X is zero"):
        parse("hopf A\ngen X weight 1\ncoprod X = X@1 - X@1\n")



_HEAD = "hopf A\ngen X weight 1\ngen Y weight 1\n"
_COPRODS = "coprod X = 1@X + X@1\ncoprod Y = 1@Y + Y@1\n"

# one minimal file per ParseError raised by parse: (text, line, column,
# message); the column is that of the offending token, one past the end of
# the line when the line ended too soon, and 0 for whole-line errors
_PARSE_ERRORS = {
    "unexpected end": (_HEAD + "rel [Y,X]\n", 4, 10,
                       "unexpected end of line, expected '='"),
    "expected token": ("hopf A\ngen X mass 1\n", 2, 7,
                       "expected 'weight', found 'mass'"),
    "trailing input": ("hopf A B\n", 1, 8, "trailing input 'B'"),
    "zero denominator": (_HEAD + "rel [Y,X] = 1/0*X\n", 4, 15,
                         "expected a nonzero integer denominator"),
    "bad exponent": (_HEAD + "rel [Y,X] = X^Y\n", 4, 15,
                     "expected an integer exponent"),
    "unexpected token": (_HEAD + "rel [Y,X] = X = Y\n", 4, 15,
                         "unexpected token '=' in a polynomial"),
    "two @": (_HEAD + "coprod X = 1@X@X\n", 4, 15,
              "more than one tensor separator in a term"),
    "empty term": (_HEAD + "rel [Y,X] = X +\n", 4, 16, "empty term"),
    "not a tensor": (_HEAD + "coprod X = X\n", 4, 13,
                     "expected a tensor term mono@mono"),
    "duplicate header": ("hopf A\nhopf B\n", 2, 0, "duplicate algebra header"),
    "nested sub": (_HEAD + "sub S side left {\nsub T side left {\n", 5, 0,
                   "nested sub blocks are not allowed"),
    "unknown side": (_HEAD + "sub S side up {\n", 4, 12, "unknown side 'up'"),
    "stray brace": (_HEAD + "}\n", 4, 0, "stray closing brace"),
    "zero weight": ("hopf A\ngen X weight 0\n", 2, 14,
                    "weight must be a positive integer"),
    "undeclared in rel": (_HEAD + "rel [Z,X] = 0\n", 4, 6,
                          "undeclared generator 'Z'"),
    "undeclared second in rel": (_HEAD + "rel [Y,Q] = 0\n", 4, 8,
                                 "undeclared generator 'Q'"),
    "misordered rel": (_HEAD + "rel [X,Y] = 0\n", 4, 6,
                       "relation [X,Y] must list the later-declared "
                       "generator first"),
    "undeclared in poly": (_HEAD + "rel [Y,X] = Q\n", 4, 13,
                           "undeclared generator 'Q'"),
    "undeclared coprod": (_HEAD + "coprod Z = 1@Z + Z@1\n", 4, 8,
                          "undeclared generator 'Z'"),
    "misplaced embed": (_HEAD + "embed X = Y\n", 4, 0,
                        "embed lines belong inside a sub block"),
    "coprod in sub": (_HEAD + "sub S side left {\ncoprod X = 1@X + X@1\n", 5,
                      0, "unexpected declaration 'coprod' in a sub block"),
    "unknown declaration": (_HEAD + "frob X\n", 4, 0,
                            "unknown declaration 'frob'"),
    # a generator's second coprod, counit, antipode or embed line
    "second coprod": (_HEAD + "coprod Y = 1@Y + Y@1 + 3@1\n" + _COPRODS, 6, 8,
                      "duplicate coprod line for 'Y'"),
    "second counit": (_HEAD + "counit X = 0\ncounit X = 0\n", 5, 8,
                      "duplicate counit line for 'X'"),
    "second antipode": (_HEAD + "antipode Y = -Y\nantipode Y = -Y\n", 5, 10,
                        "duplicate antipode line for 'Y'"),
    "second embed": (_HEAD + _COPRODS + "sub S side left {\ngen Z weight 1\n"
                     "embed Z = X\nembed Z = Y\n}\n", 9, 7,
                     "duplicate embed line for 'Z'"),
    # a declared name must be an identifier
    "mark as algebra name": ("hopf =\n", 1, 6, "expected a name, found '='"),
    "number as algebra name": ("hopf 2\n", 1, 6, "expected a name, found '2'"),
    "mark as generator": ("hopf A\ngen * weight 1\n", 2, 5,
                          "expected a name, found '*'"),
    "number as generator": ("hopf A\ngen 2 weight 1\n", 2, 5,
                            "expected a name, found '2'"),
    "mark as sub name": (_HEAD + "sub { side left {\n", 4, 5,
                         "expected a name, found '{'"),
    "number as sub name": (_HEAD + "sub 1 side left {\n", 4, 5,
                           "expected a name, found '1'"),
    "mark as sub generator": (_HEAD + "sub S side left {\ngen @ weight 1\n",
                              5, 5, "expected a name, found '@'"),
    # columns count the indentation of a line, and the end of a line is
    # one past its last character before a comment
    "indented sub generator": (_HEAD + "sub S side left {\n    gen * weight 1\n",
                               5, 9, "expected a name, found '*'"),
    "indented embed": (_HEAD + _COPRODS + "sub S side left {\n  gen Z weight 1\n"
                       "    embed Z = X + Q\n", 8, 19,
                       "undeclared generator 'Q'"),
    "bare header": ("hopf\n", 1, 5, "unexpected end of line"),
    "missing weight": ("hopf A\ngen X weight  # none\n", 2, 13,
                       "unexpected end of line"),
    # a digit that is no decimal digit is no integer (int() raised on it)
    "superscript digit": ("hopf A\ngen X weight \u00b2\n", 2, 14,
                          "unexpected character '\u00b2'"),
}


@pytest.mark.parametrize("text,line,col,message", _PARSE_ERRORS.values(),
                         ids=_PARSE_ERRORS.keys())
def test_parse_error_sites(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).endswith(message)


_SUB = "sub S side left {\ngen Z weight 1\ngen W weight 1\n"


@pytest.mark.parametrize("text,message", [
    (_HEAD + "rel [Y,X] = Y\nrel [Y,X] = 0\n" + _COPRODS,
     "generator Y,X is given twice"),
    (_HEAD + _COPRODS + "antipode X = -X\n",
     "antipode lines must cover all generators or none; missing: Y"),
], ids=["repeated rel", "partial antipodes"])
def test_build_algebra_rejects(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_algebra(parse(text))


@pytest.mark.parametrize("block,message", [
    ("rel [W,Z] = 0\nrel [W,Z] = Z\nembed Z = X\nembed W = Y\n",
     "generator W,Z is given twice"),
    ("embed Z = X\n", "sub S: missing embed lines for W"),
], ids=["repeated rel", "missing embed"])
def test_sub_arguments_rejects(block, message):
    H, (sub,) = build_algebra(parse(_HEAD + _COPRODS + _SUB + block + "}\n"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sub_arguments(H, sub)


# identifiers, some of them keywords of the format
_NAMES = ("X", "Y2", "_z", "weight", "side", "sub", "gen")
_COEFFS = st.builds(F, st.integers(1, 9), st.integers(1, 4)).flatmap(
    lambda c: st.sampled_from((c, -c)))


def _monomials(names):
    """Mono keys over names: (name, exponent) pairs in declaration order."""
    return st.lists(st.integers(0, 2), min_size=len(names),
                    max_size=len(names)).map(
        lambda exps: tuple((n, e) for n, e in zip(names, exps) if e))


def _polys(names, min_size=0):
    return st.dictionaries(_monomials(names), _COEFFS, min_size=min_size,
                           max_size=3)


def _tensor_polys(names):
    return st.dictionaries(st.tuples(_monomials(names), _monomials(names)),
                           _COEFFS, min_size=1, max_size=3)


def _generators(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=3))
    return [(g, draw(st.integers(1, 12))) for g in names]


def _relations(draw, names):
    pairs = [(names[j], names[i]) for j in range(len(names)) for i in range(j)]
    if not pairs:
        return []
    return [(gj, gi, draw(_polys(names))) for gj, gi in draw(
        st.lists(st.sampled_from(pairs), max_size=3))]


def _subset(draw, names):
    return [g for g in names if draw(st.booleans())]


@st.composite
def _definition_files(draw):
    generators = _generators(draw)
    names = [g for g, _ in generators]
    df = DefinitionFile(
        name=draw(st.sampled_from(_NAMES)), generators=generators,
        relations=_relations(draw, names),
        coproducts={g: draw(_tensor_polys(names)) for g in names},
        counits={g: F(0) for g in _subset(draw, names)},
        antipodes={g: draw(_polys(names)) for g in _subset(draw, names)})
    for _ in range(draw(st.integers(0, 2))):
        sub_generators = _generators(draw)
        sub_names = [g for g, _ in sub_generators]
        df.subs.append(SubBlock(
            name=draw(st.sampled_from(_NAMES)),
            side=draw(st.sampled_from(("left", "right", "hopf"))),
            generators=sub_generators,
            relations=_relations(draw, sub_names),
            embeds={g: draw(_polys(names)) for g in _subset(draw, sub_names)}))
    return df


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_definition_files())
def test_format_definition_round_trips_through_parse(df):
    assert parse(format_definition(df)) == df
