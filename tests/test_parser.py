from fractions import Fraction
from pathlib import Path

import pytest

from hopfforge import catalog
from hopfforge.grading import certify
from hopfforge.parser import (ParseError, build_algebra, format_definition,
                              parse, sub_arguments)

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
    specs = {b.name: register_subalgebra(**sub_arguments(H, b), cutoff=6)
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
