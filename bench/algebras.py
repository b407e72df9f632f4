"""Algebra definitions the benchmark feeds to hopfforge, and the values it
expects back, computed here from the definitions alone.

A definition is plain data: generator names and weights, commutator
entries, generator coproducts and (optionally) antipodes.  From it the
benchmark writes `.hopf` text for the parser and derives, without calling
hopfforge, the graded dimensions, the signature and the bracket table of
the dual graded Lie algebra.  The derivations are written out in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# A polynomial is a list of (coefficient, word) with word a tuple of
# generator names; () is the unit.  A tensor term is (coefficient, left
# word, right word).


@dataclass
class Definition:
    name: str
    gens: list                       # [(name, weight)]
    rels: dict                       # {(later, earlier): polynomial}
    coprods: dict                    # {gen: [(c, left, right)]}
    antipodes: dict = field(default_factory=dict)   # {gen: polynomial}

    @property
    def weights(self) -> list[int]:
        return [w for _, w in self.gens]

    def hopf_text(self) -> str:
        lines = [f"hopf {self.name}"]
        lines += [f"gen {g} weight {w}" for g, w in self.gens]
        for (gj, gi), poly in self.rels.items():
            lines.append(f"rel [{gj},{gi}] = {_poly_text(poly)}")
        for g, _ in self.gens:
            terms = " + ".join(f"{c}*{_word(a)}@{_word(b)}"
                               for c, a, b in self.coprods[g])
            lines.append(f"coprod {g} = {terms}")
        for g, poly in self.antipodes.items():
            lines.append(f"antipode {g} = {_poly_text(poly)}")
        return "\n".join(lines).replace("+ -", "- ") + "\n"


def _word(word) -> str:
    return "*".join(word) if word else "1"


def _poly_text(poly) -> str:
    return " + ".join(f"{c}*{_word(w)}" if w else f"{c}" for c, w in poly)


ONE = Fraction(1)
HALF = Fraction(1, 2)


def _primitive(g):
    return [(ONE, (), (g,)), (ONE, (g,), ())]


def b_lambda(lam: Fraction) -> Definition:
    """B(lam): [Y,X] = -Y, [Z,X] = -Z + lam*Y, [Z,Y] = Y^2/2."""
    return Definition(
        name=f"B_{_tag(lam)}",
        gens=[("X", 1), ("Y", 1), ("Z", 2)],
        rels={("Y", "X"): [(-ONE, ("Y",))],
              ("Z", "X"): [(-ONE, ("Z",)), (lam, ("Y",))],
              ("Z", "Y"): [(HALF, ("Y", "Y"))]},
        coprods={"X": _primitive("X"), "Y": _primitive("Y"),
                 "Z": [(ONE, (), ("Z",)), (ONE, ("X",), ("Y",)),
                       (ONE, ("Z",), ())]},
        antipodes={"X": [(-ONE, ("X",))], "Y": [(-ONE, ("Y",))],
                   "Z": [(-ONE, ("Z",)), (ONE, ("X", "Y"))]})


def e_params(a, b, l1, l2) -> Definition:
    """E(a,b,l1,l2); no antipode lines, so hopfforge solves the antipode."""
    a, b, l1, l2 = map(Fraction, (a, b, l1, l2))
    return Definition(
        name=f"E_{_tag(a)}_{_tag(b)}_{_tag(l1)}_{_tag(l2)}",
        gens=[("X", 1), ("Y", 1), ("Z", 2), ("W", 3)],
        rels={("Z", "X"): [(ONE, ("X",))],
              ("W", "X"): [(a, ("X",))],
              ("W", "Y"): [(b, ("X",))],
              ("W", "Z"): [(a, ("Z",)), (-ONE, ("W",)), (l1, ("X",)),
                           (l2, ("Y",))]},
        coprods={"X": _primitive("X"), "Y": _primitive("Y"),
                 "Z": [(ONE, (), ("Z",)), (ONE, ("X",), ("Y",)),
                       (-ONE, ("Y",), ("X",)), (ONE, ("Z",), ())],
                 "W": [(ONE, (), ("W",)), (ONE, ("W",), ()),
                       (ONE, ("Z",), ("X",)), (-ONE, ("X",), ("Z",)),
                       (ONE, ("X",), ("X", "Y")), (ONE, ("X", "Y"), ("X",))]})


def heisenberg() -> Definition:
    """U(heisenberg): [Y,X] = -Z, all generators primitive of weight 1."""
    return Definition(
        name="U_heisenberg",
        gens=[("X", 1), ("Y", 1), ("Z", 1)],
        rels={("Y", "X"): [(-ONE, ("Z",))]},
        coprods={g: _primitive(g) for g in "XYZ"},
        antipodes={g: [(-ONE, (g,))] for g in "XYZ"})


def nonabelian2() -> Definition:
    """U(nonabelian2): [Y,X] = -Y, both generators primitive of weight 1."""
    return Definition(
        name="U_nonabelian2",
        gens=[("X", 1), ("Y", 1)],
        rels={("Y", "X"): [(-ONE, ("Y",))]},
        coprods={g: _primitive(g) for g in "XY"},
        antipodes={g: [(-ONE, (g,))] for g in "XY"})


def negative_control() -> Definition:
    """k[X,Y,Z] with D(Z) = 1@Z + X@Y + Y@X + Z@1.

    Z - X*Y is primitive, so the weight-2 generator does not realise the
    coradical filtration and certification must fail at filtration degree 1.
    """
    return Definition(
        name="negative_control",
        gens=[("X", 1), ("Y", 1), ("Z", 2)],
        rels={},
        coprods={"X": _primitive("X"), "Y": _primitive("Y"),
                 "Z": [(ONE, (), ("Z",)), (ONE, ("X",), ("Y",)),
                       (ONE, ("Y",), ("X",)), (ONE, ("Z",), ())]})


def _tag(q: Fraction) -> str:
    return str(q).replace("-", "m").replace("/", "o")


# -- seeded parameters --------------------------------------------------------

# Nonzero rationals of small height: certification cost at a fixed
# truncation is flat across this pool (measured), so the seed varies the
# inputs without moving the amount of work.
LAMBDAS = [Fraction(n, d) for n, d in ((1, 1), (-1, 1), (2, 1), (-2, 1),
                                       (3, 1), (-3, 1), (1, 2), (-1, 2),
                                       (2, 3), (-2, 3), (3, 2), (-3, 2))]
# E parameter sets (a, b, l1, l2) whose certification cost at truncations
# 6 and 7 is within the machine's run-to-run noise of E(1,1,0,0); sets
# such as (1,1,1,1) that certify markedly faster are left out.
E_PARAMS = [(2, -1, 1, 3), (3, -1, 1, 0), (2, 2, -1, 1), (3, 1, 1, 1),
            (2, -1, -1, 0), (1, -1, 0, 0), (2, 3, 1, -1), (-2, 1, 1, 1)]


def seeded(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{salt}")


# -- independent expectations ---------------------------------------------------


def graded_dims(weights, order: int) -> list[int]:
    """Number of ordered monomials of each weight 0..order.

    The coefficients of prod_i 1/(1 - t^{w_i}), by the usual coin-change
    recursion.
    """
    dims = [1] + [0] * order
    for w in weights:
        for n in range(w, order + 1):
            dims[n] += dims[n - w]
    return dims


def signature_pairs(weights) -> list[list[int]]:
    """Sorted [degree, multiplicity] pairs of the weight multiset."""
    return [[d, weights.count(d)] for d in sorted(set(weights))]


def lie_brackets(defn: Definition) -> dict:
    """{(a, b): {e: c}} for generators a before b, from the definition.

    The bracket [u_a, u_b] has coefficient, on u_e, the coefficient of a@b
    minus that of b@a in the coproduct of e, over generator pairs whose
    weights add up to the weight of e.
    """
    weight = dict(defn.gens)
    names = [g for g, _ in defn.gens]
    out: dict = {}
    for e in names:
        coeff: dict = {}
        for c, left, right in defn.coprods[e]:
            if len(left) == len(right) == 1 and \
                    weight[left[0]] + weight[right[0]] == weight[e]:
                coeff[(left[0], right[0])] = coeff.get((left[0], right[0]), 0) + c
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                c = coeff.get((a, b), 0) - coeff.get((b, a), 0)
                if c:
                    out.setdefault((a, b), {})[e] = Fraction(c)
    return out


def lie_table_ok(labels, degrees, brackets: dict) -> bool:
    """Antisymmetry, grading and Jacobi for a bracket table {(a,b): {e: c}}.

    The table may list a pair in either order; both orders must agree up
    to sign, no generator may be bracketed with itself, and the cyclic sum
    [x,[y,z]] + [y,[z,x]] + [z,[x,y]] must vanish on every triple.
    """
    full: dict = {}
    for (a, b), table in brackets.items():
        if a == b:
            return False
        for e, c in table.items():
            if degrees[e] != degrees[a] + degrees[b]:
                return False
            for key, v in (((a, b), c), ((b, a), -c)):
                if full.setdefault(key, {}).setdefault(e, v) != v:
                    return False
    n = len(labels)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                acc: dict = {}
                for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                    for e, c in full.get((q, r), {}).items():
                        for f, c2 in full.get((p, e), {}).items():
                            acc[f] = acc.get(f, 0) + c * c2
                if any(acc.values()):
                    return False
    return True
