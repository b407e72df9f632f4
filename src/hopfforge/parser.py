"""Line-oriented definition-file format (.hopf) and its parser.

Grammar (one declaration per line, '#' starts a comment, UTF-8):

    hopf <name>
    gen <Name> weight <int>
    rel [A,B] = <poly>              # A must be declared after B
    coprod <Name> = <tensor-poly>   # terms like  coef*mono@mono ; 1@G, G@1
    counit <Name> = 0               # optional, must be 0
    antipode <Name> = <poly>        # optional
    sub <name> side <left|right|hopf> {
        gen ... ; rel ... ;
        embed <Name> = <poly of host generators>
    }

Names are identifiers (a letter or '_', then letters, digits or '_').
Monomials are written X, X^2, X^2*Y; rationals as p/q or integers.
Parsed polynomials keep their generator names, so a definition file can
be printed back and reparsed into an equal structure.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Presentation, format_linear
from .hopf import PresentedHopfAlgebra
from .linalg import add_term

# a polynomial is {mono-key: int or Fraction}; a mono-key is a tuple of
# (generator name, exponent) pairs in declaration order, () meaning 1
Poly = dict
MonoKey = tuple


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}"
                         if col else f"line {line}: {message}")
        self.line = line
        self.col = col


class _Record:
    """Parsed fields that start empty; keyword arguments replace them."""

    def _fill(self, given: dict) -> None:
        unknown = given.keys() - vars(self).keys()
        if unknown:
            raise TypeError(f"no field {min(unknown)!r} in {type(self)}")
        vars(self).update(given)

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)


class SubBlock(_Record):
    def __init__(self, name: str, side: str, **given):
        self.name, self.side = name, side
        self.generators: list = []    # (name, weight)
        self.relations: list = []     # (gj, gi, Poly)
        self.embeds: dict = {}        # name -> host Poly
        self._fill(given)


class DefinitionFile(_Record):
    def __init__(self, name: str, **given):
        self.name = name
        self.generators: list = []    # (name, weight)
        self.relations: list = []     # (gj, gi, Poly)
        self.coproducts: dict = {}    # name -> {(mk, mk): Fraction}
        self.counits: dict = {}       # name -> Fraction(0)
        self.antipodes: dict = {}     # name -> Poly
        self.subs: list = []
        self._fill(given)


# a token is a name, an integer or a mark, by the group that matched it
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)|(\d+)|([\[\],=@^*/{}+-])")
_NAME, _INT = 1, 2
_UNEXPECTED = re.compile(r"[^\s\dA-Za-z_\[\],=@^*/{}+-]")
_TERM_ENDS = frozenset("+-,]}")


def _tokenize(text: str, lineno: int):
    """The tokens (text, column, class) of a line, then an end marker
    (None, the column one past the end of the line, 0)."""
    bad = _UNEXPECTED.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", lineno,
                         bad.start() + 1)
    out = [(m.group(), m.start() + 1, m.lastindex)
           for m in _TOKEN.finditer(text)]
    out.append((None, len(text.rstrip()) + 1, 0))
    return out


class _TokenStream:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def col(self):
        return self.tokens[self.pos][1]

    def next(self, expect=None):
        tok, col, _ = self.tokens[self.pos]
        if tok is None:
            raise ParseError(f"unexpected end of line"
                             + (f", expected {expect!r}" if expect else ""),
                             self.lineno, col)
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}",
                             self.lineno, col)
        self.pos += 1
        return tok

    def name(self):
        """The next token, which must be a name (an identifier)."""
        tok, col, cls = self.tokens[self.pos]
        if tok is not None and cls != _NAME:
            raise ParseError(f"expected a name, found {tok!r}", self.lineno,
                             col)
        return self.next()

    def done(self):
        tok, col, _ = self.tokens[self.pos]
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", self.lineno, col)


def _parse_number(ts: _TokenStream) -> int | Fraction:
    """p or p/q, read from an integer token (the only caller checks it): an
    int, or a Fraction once a '/' appears."""
    value = int(ts.next())
    if ts.peek() == "/":
        ts.next("/")
        col, den = ts.col(), ts.next()
        if not den.isdigit() or int(den) == 0:
            raise ParseError("expected a nonzero integer denominator",
                             ts.lineno, col)
        value = Fraction(value, int(den))
    return value


def _parse_term(ts: _TokenStream, declared, allow_tensor: bool):
    """One signed term: returns (coeff, [mono dict per tensor side])."""
    tokens, lineno = ts.tokens, ts.lineno
    coeff = 1
    while ts.peek() in ("+", "-"):
        if ts.next() == "-":
            coeff = -coeff
    sides: list[dict] = [{}]
    saw_factor = False
    while True:
        tok, col, cls = tokens[ts.pos]
        if cls == _NAME:
            if tok not in declared:
                raise ParseError(f"undeclared generator {tok!r}", lineno, col)
            ts.pos += 1
            exp = 1
            if ts.peek() == "^":
                ts.pos += 1
                col, e = ts.col(), ts.next()
                if not e.isdigit():
                    raise ParseError("expected an integer exponent", lineno,
                                     col)
                exp = int(e)
            add_term(sides[-1], tok, exp)
            saw_factor = True
        elif cls == _INT:
            coeff *= _parse_number(ts)
            saw_factor = True
        elif tok == "*":
            ts.pos += 1
        elif tok == "@":
            if not allow_tensor:
                raise ParseError("tensor syntax not allowed in relations",
                                 lineno, col)
            if len(sides) > 1:
                raise ParseError("more than one tensor separator in a term",
                                 lineno, col)
            ts.pos += 1
            sides.append({})
            saw_factor = False
        elif tok is None or tok in _TERM_ENDS:
            break
        else:
            raise ParseError(f"unexpected token {tok!r} in a polynomial",
                             lineno, col)
    if not saw_factor and len(sides) == 1:
        raise ParseError("empty term", lineno, ts.col())
    if allow_tensor and len(sides) == 1:
        raise ParseError("expected a tensor term mono@mono", lineno, ts.col())
    return coeff, sides


def _mono_key(mono: dict, order: dict) -> MonoKey:
    """The (name, exponent) pairs of mono (no zero exponent) in order."""
    if len(mono) < 2:
        return tuple(mono.items())
    return tuple(sorted(mono.items(), key=lambda p: order[p[0]]))


def _parse_poly(ts: _TokenStream, declared, order, tensor: bool):
    out: dict = {}
    while True:
        coeff, sides = _parse_term(ts, declared, tensor)
        if tensor:
            key = (_mono_key(sides[0], order), _mono_key(sides[1], order))
        else:
            key = _mono_key(sides[0], order)
        add_term(out, key, coeff)
        # a term ends at a sign (the next term) or at one of these
        if ts.peek() in (None, ",", "]", "}"):
            break
    return out


def _defined_generator(ts: _TokenStream, order: dict, given: dict,
                       head: str) -> str:
    """The generator named by a coprod, counit, antipode or embed line,
    read up to its '=': declared in order, and not yet in given."""
    col, name = ts.col(), ts.next()
    if name not in order:
        raise ParseError(f"undeclared generator {name!r}", ts.lineno, col)
    if name in given:
        raise ParseError(f"duplicate {head} line for {name!r}", ts.lineno, col)
    ts.next("=")
    return name


def parse(text: str) -> DefinitionFile:
    df: DefinitionFile | None = None
    sub: SubBlock | None = None
    host_order: dict = {}
    sub_order: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]  # not stripped: columns count indentation
        if not line.strip():
            continue
        ts = _TokenStream(_tokenize(line, lineno), lineno)
        head = ts.next()
        if df is None:
            if head != "hopf":
                raise ParseError("no algebra header: the first declaration "
                                 "must be 'hopf <name>'", lineno)
            df = DefinitionFile(name=ts.name())
            ts.done()
            continue
        if head == "hopf":
            raise ParseError("duplicate algebra header", lineno)
        if head == "sub":
            if sub is not None:
                raise ParseError("nested sub blocks are not allowed", lineno)
            name = ts.name()
            ts.next("side")
            col, side = ts.col(), ts.next()
            if side not in ("left", "right", "hopf"):
                raise ParseError(f"unknown side {side!r}", lineno, col)
            ts.next("{")
            ts.done()
            sub = SubBlock(name=name, side=side)
            sub_order = {}
            continue
        if head == "}":
            if sub is None:
                raise ParseError("stray closing brace", lineno)
            ts.done()
            df.subs.append(sub)
            sub = None
            continue
        block = sub if sub is not None else df
        order = sub_order if sub is not None else host_order
        if head == "gen":
            name = ts.name()
            if name in order:
                raise ParseError(f"duplicate declaration of {name!r}", lineno)
            ts.next("weight")
            col, w = ts.col(), ts.next()
            if not w.isdigit() or int(w) == 0:
                raise ParseError("weight must be a positive integer", lineno,
                                 col)
            ts.done()
            order[name] = len(order)
            block.generators.append((name, int(w)))
            continue
        if head == "rel":
            ts.next("[")
            col_j, gj = ts.col(), ts.next()
            ts.next(",")
            col_i, gi = ts.col(), ts.next()
            ts.next("]")
            for g, col in ((gj, col_j), (gi, col_i)):
                if g not in order:
                    raise ParseError(f"undeclared generator {g!r}", lineno, col)
            if order[gj] <= order[gi]:
                raise ParseError(
                    f"relation [{gj},{gi}] must list the later-declared "
                    "generator first", lineno, col_j)
            ts.next("=")
            poly = _parse_poly(ts, order, order, tensor=False)
            ts.done()
            block.relations.append((gj, gi, poly))
            continue
        if head == "embed":
            if sub is None:
                raise ParseError("embed lines belong inside a sub block", lineno)
            name = _defined_generator(ts, sub_order, sub.embeds, head)
            poly = _parse_poly(ts, host_order, host_order, tensor=False)
            ts.done()
            sub.embeds[name] = poly
            continue
        if sub is not None:
            raise ParseError(f"unexpected declaration {head!r} in a sub block",
                             lineno)
        if head == "coprod":
            name = _defined_generator(ts, host_order, df.coproducts, head)
            poly = _parse_poly(ts, host_order, host_order, tensor=True)
            ts.done()
            if not poly:
                raise ParseError(f"coproduct of {name} is zero", lineno)
            df.coproducts[name] = poly
            continue
        if head == "counit":
            name = _defined_generator(ts, host_order, df.counits, head)
            value = ts.next()
            ts.done()
            if value != "0":
                raise ParseError("counit of a generator must be 0 "
                                 "(normalize generators into the counit "
                                 "kernel first)", lineno)
            df.counits[name] = Fraction(0)
            continue
        if head == "antipode":
            name = _defined_generator(ts, host_order, df.antipodes, head)
            poly = _parse_poly(ts, host_order, host_order, tensor=False)
            ts.done()
            df.antipodes[name] = poly
            continue
        raise ParseError(f"unknown declaration {head!r}", lineno)
    if df is None:
        raise ParseError("no algebra header", 1)
    if sub is not None:
        raise ParseError("unterminated sub block", len(text.splitlines()))
    missing = [g for g, _ in df.generators if g not in df.coproducts]
    if missing:
        raise ParseError("missing coproduct lines for: " + ", ".join(missing),
                         len(text.splitlines()))
    return df


# -- conversion to working objects --------------------------------------------


def _exponent_vector(key: MonoKey, index: dict) -> tuple:
    vec = [0] * len(index)
    for name, e in key:
        vec[index[name]] += e
    return tuple(vec)


def _poly_terms(poly: Poly, index: dict) -> dict:
    return {_exponent_vector(k, index): c for k, c in poly.items()}


def _relation_table(relations: list, index: dict) -> dict:
    """{(gj, gi): terms} of parsed relations, for generators numbered by
    index; a pair given twice raises ValueError, as
    Presentation.indexed does for a repeated key."""
    table: dict = {}
    for gj, gi, poly in relations:
        if (gj, gi) in table:
            raise ValueError(f"generator {gj},{gi} is given twice")
        table[gj, gi] = _poly_terms(poly, index)
    return table


def build_algebra(df: DefinitionFile) -> tuple[PresentedHopfAlgebra, list[SubBlock]]:
    """Instantiate the parsed definition (uncertified; certify separately)."""
    index = {g: i for i, (g, _) in enumerate(df.generators)}
    pres = Presentation(df.generators, _relation_table(df.relations, index))
    coproducts = {}
    for g, terms in df.coproducts.items():
        coproducts[g] = {
            (_exponent_vector(k1, index), _exponent_vector(k2, index)): c
            for (k1, k2), c in terms.items()}
    antipodes = None
    if df.antipodes:
        missing = [g for g in index if g not in df.antipodes]
        if missing:
            raise ValueError("antipode lines must cover all generators or "
                             "none; missing: " + ", ".join(missing))
        antipodes = {g: _poly_terms(p, index) for g, p in df.antipodes.items()}
    H = PresentedHopfAlgebra(pres, coproducts, antipodes, name=df.name)
    return H, df.subs


def sub_arguments(host: PresentedHopfAlgebra, block: SubBlock) -> dict:
    """Keyword arguments for register_subalgebra from a parsed sub block."""
    index = {g: i for i, (g, _) in enumerate(block.generators)}
    host_index = {g: i for i, g in enumerate(host.presentation.names)}
    missing = [g for g in index if g not in block.embeds]
    if missing:
        raise ValueError(f"sub {block.name}: missing embed lines for "
                         + ", ".join(missing))
    return dict(
        host=host, name=block.name, generators=block.generators,
        commutators=_relation_table(block.relations, index),
        embedding={g: host.presentation.element(_poly_terms(p, host_index))
                   for g, p in block.embeds.items()},
        side=block.side)


# -- printing ------------------------------------------------------------------


def _format_mono_key(key: MonoKey) -> str:
    if not key:
        return "1"
    return "*".join(f"{n}^{e}" if e > 1 else n for n, e in key)


def _format_poly(poly: Poly, order: dict, tensor: bool = False) -> str:
    def sort_key(k):
        if tensor:
            return tuple(tuple((order[n], e) for n, e in side) for side in k)
        return tuple((order[n], e) for n, e in k)
    return format_linear(
        (poly[key], "@".join(map(_format_mono_key, key)) if tensor
         else _format_mono_key(key))
        for key in sorted(poly, key=sort_key))


def format_definition(df: DefinitionFile) -> str:
    """Canonical text form; parsing it back yields an equal DefinitionFile."""
    order = {g: i for i, (g, _) in enumerate(df.generators)}
    lines = [f"hopf {df.name}"]
    for g, w in df.generators:
        lines.append(f"gen {g} weight {w}")
    for gj, gi, poly in df.relations:
        lines.append(f"rel [{gj},{gi}] = {_format_poly(poly, order)}")
    for g, _ in df.generators:
        if g in df.coproducts:
            lines.append(
                f"coprod {g} = {_format_poly(df.coproducts[g], order, True)}")
    for g in df.counits:
        lines.append(f"counit {g} = 0")
    for g, _ in df.generators:
        if g in df.antipodes:
            lines.append(f"antipode {g} = {_format_poly(df.antipodes[g], order)}")
    for sub in df.subs:
        lines.append(f"sub {sub.name} side {sub.side} {{")
        sub_order = {g: i for i, (g, _) in enumerate(sub.generators)}
        for g, w in sub.generators:
            lines.append(f"  gen {g} weight {w}")
        for gj, gi, poly in sub.relations:
            lines.append(f"  rel [{gj},{gi}] = {_format_poly(poly, sub_order)}")
        for g, _ in sub.generators:
            if g in sub.embeds:
                lines.append(f"  embed {g} = {_format_poly(sub.embeds[g], order)}")
        lines.append("}")
    return "\n".join(lines) + "\n"
