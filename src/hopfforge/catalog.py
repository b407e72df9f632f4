"""Built-in constructors for the catalog algebras and their subalgebras.

Everything returned here is fully certified at construction (axioms,
confluence, filtration); builders are memoized on their exact-rational
parameters, so repeated lookups share one immutable instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .algebra import Presentation, as_fraction
from .grading import certify
from .hopf import HopfAlgebraError, PresentedHopfAlgebra
from .tensor import tensor_product as tp

if TYPE_CHECKING:  # loaded by the subalgebra builders only
    from .coideal import SubalgebraSpec

INF = "inf"


def _certified(H: PresentedHopfAlgebra, truncation: int) -> PresentedHopfAlgebra:
    report = certify(H, truncation)
    if H.certification is None:
        raise HopfAlgebraError(
            f"catalog object {H.name} failed certification:\n" + report.summary())
    return H


@lru_cache(maxsize=None)
def _b_lambda(lam: Fraction, truncation: int) -> PresentedHopfAlgebra:
    pres = Presentation(
        [("X", 1), ("Y", 1), ("Z", 2)],
        {
            ("Y", "X"): {(0, 1, 0): -1},                       # [Y,X] = -Y
            ("Z", "X"): {(0, 0, 1): -1, (0, 1, 0): lam},       # [Z,X] = -Z + lam*Y
            ("Z", "Y"): {(0, 2, 0): Fraction(1, 2)},           # [Z,Y] = Y^2/2
        })
    one = pres.one()
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    H = PresentedHopfAlgebra(
        pres,
        coproducts={
            "X": tp(one, X) + tp(X, one),
            "Y": tp(one, Y) + tp(Y, one),
            "Z": tp(one, Z) + tp(X, Y) + tp(Z, one),
        },
        antipodes={"X": -X, "Y": -Y, "Z": -Z + X * Y},
        name=f"B({lam})")
    return _certified(H, truncation)


def build_b_lambda(lam, truncation: int = 6) -> PresentedHopfAlgebra:
    """Rank-3 catalog algebra B(lam): [X,Y]=Y, [Z,X]=-Z+lam*Y, [Z,Y]=Y^2/2."""
    return _b_lambda(as_fraction(lam), truncation)


@lru_cache(maxsize=None)
def _b_coideal(lam: Fraction, which: str, parameter, truncation: int
               ) -> SubalgebraSpec:
    from .coideal import register_subalgebra
    H = build_b_lambda(lam, truncation)
    pres = H.presentation
    X, Y, Z = pres.gen("X"), pres.gen("Y"), pres.gen("Z")
    half = Fraction(1, 2)
    if which == "g_alpha":
        alpha = as_fraction(parameter)
        return register_subalgebra(
            H, f"U(g_{alpha})", [("C", 1)], {}, {"C": X + Y * alpha}, "hopf")
    if which == "g_inf":
        return register_subalgebra(H, "U(g_inf)", [("Y", 1)], {}, {"Y": Y},
                                   "hopf")
    if which == "L":
        if parameter == INF:
            # adjoin Z over k[Y]; the derivation sends Y to Y^2/2
            return register_subalgebra(
                H, "L_inf", [("Y", 1), ("Z", 2)],
                {("Z", "Y"): {(2, 0): half}}, {"Y": Y, "Z": Z}, "left")
        beta = as_fraction(parameter)
        if beta == 0:
            return register_subalgebra(
                H, "L_0", [("Y", 1), ("X", 1)], {("X", "Y"): {(1, 0): 1}},
                {"Y": Y, "X": X}, "hopf")
        return register_subalgebra(
            H, f"L_{beta}", [("Y", 1), ("B", 2)],
            {("B", "Y"): {(1, 0): 1, (2, 0): beta * half}},
            {"Y": Y, "B": X + Z * beta}, "left")
    if which == "R":
        W = Z - X * Y
        if parameter == INF:
            return register_subalgebra(
                H, "R_inf", [("Y", 1), ("W", 2)],
                {("W", "Y"): {(2, 0): -half}}, {"Y": Y, "W": W}, "right")
        beta = as_fraction(parameter)
        if beta == 0:
            return register_subalgebra(
                H, "R_0", [("Y", 1), ("X", 1)], {("X", "Y"): {(1, 0): 1}},
                {"Y": Y, "X": X}, "hopf")
        return register_subalgebra(
            H, f"R_{beta}", [("Y", 1), ("B", 2)],
            {("B", "Y"): {(1, 0): 1, (2, 0): -beta * half}},
            {"Y": Y, "B": X + W * beta}, "right")
    raise ValueError(f"unknown coideal family {which!r}; "
                     "use g_alpha, g_inf, L or R")


def build_b_coideal(lam, which: str, parameter=None,
                    truncation: int = 6) -> SubalgebraSpec:
    """Named subalgebras of B(lam).

    which: 'g_alpha' (one primitive X + alpha*Y), 'g_inf' (one primitive
    Y), 'L' (rank-2 left coideals, parameter beta or 'inf'), 'R' (rank-2
    right coideals, likewise).  R with parameter 'inf' is generated by Y
    and W = Z - X*Y with [W,Y] = -Y^2/2; rescaling its generators by
    x -> -2*W, y -> Y identifies it with the plane k<x,y : [x,y] = y^2>.
    """
    if which in ("L", "R"):
        parameter = INF if parameter in (INF, "infinity") else as_fraction(parameter)
    elif which == "g_alpha":
        parameter = as_fraction(parameter)
    elif which == "g_inf":
        parameter = None
    return _b_coideal(as_fraction(lam), which, parameter, truncation)


@lru_cache(maxsize=None)
def _e(a: Fraction, b: Fraction, l1: Fraction, l2: Fraction,
       truncation: int) -> PresentedHopfAlgebra:
    pres = Presentation(
        [("X", 1), ("Y", 1), ("Z", 2), ("W", 3)],
        {
            ("Z", "X"): {(1, 0, 0, 0): 1},                     # [Z,X] = X
            ("W", "X"): {(1, 0, 0, 0): a},                     # [W,X] = a*X
            ("W", "Y"): {(1, 0, 0, 0): b},                     # [W,Y] = b*X
            # [W,Z] = a*Z - W + l1*X + l2*Y
            ("W", "Z"): {(0, 0, 1, 0): a, (0, 0, 0, 1): -1,
                         (1, 0, 0, 0): l1, (0, 1, 0, 0): l2},
        })
    one = pres.one()
    X, Y, Z, W = (pres.gen(g) for g in ("X", "Y", "Z", "W"))
    H = PresentedHopfAlgebra(
        pres,
        coproducts={
            "X": tp(one, X) + tp(X, one),
            "Y": tp(one, Y) + tp(Y, one),
            "Z": tp(one, Z) + tp(X, Y) - tp(Y, X) + tp(Z, one),
            "W": tp(one, W) + tp(W, one) + tp(Z, X) - tp(X, Z)
                 + tp(X, X * Y) + tp(X * Y, X),
        },
        name=f"E({a},{b},{l1},{l2})")
    return _certified(H, truncation)


def build_e(a=1, b=1, l1=0, l2=0, truncation: int = 6) -> PresentedHopfAlgebra:
    """Rank-4 catalog algebra E(a,b,l1,l2); the antipode is solved, not given."""
    return _e(as_fraction(a), as_fraction(b), as_fraction(l1), as_fraction(l2),
              truncation)


@lru_cache(maxsize=None)
def _e_coideal(a: Fraction, b: Fraction, l1: Fraction, l2: Fraction,
               truncation: int) -> SubalgebraSpec:
    from .coideal import register_subalgebra
    H = build_e(a, b, l1, l2, truncation)
    pres = H.presentation
    X, Y, Z, W = (pres.gen(g) for g in ("X", "Y", "Z", "W"))
    # V = W - X*Z acts on k[X,Y] as the derivation X -> a*X - X^2, Y -> b*X
    return register_subalgebra(
        H, "T", [("X", 1), ("Y", 1), ("V", 3)],
        {
            ("V", "X"): {(1, 0, 0): a, (2, 0, 0): -1},
            ("V", "Y"): {(1, 0, 0): b},
        },
        {"X": X, "Y": Y, "V": W - X * Z}, "right")


def build_e_coideal(a=1, b=1, l1=0, l2=0, truncation: int = 6) -> SubalgebraSpec:
    """The rank-3 right coideal subalgebra of E generated by X, Y, W - X*Z."""
    return _e_coideal(as_fraction(a), as_fraction(b), as_fraction(l1),
                      as_fraction(l2), truncation)


def build_enveloping(name: str, generators, brackets,
                     truncation: int = 6) -> PresentedHopfAlgebra:
    """Enveloping algebra of a Lie algebra given by linear brackets.

    generators is a list of names (all placed in weight one); brackets
    maps (later, earlier) generator pairs to {name: coefficient} for the
    linear commutator.  Generators are primitive and the antipode negates
    them; the overlap check certifies the Jacobi identity.
    """
    gens = [(g, 1) for g in generators]
    index = {g: i for i, (g, _) in enumerate(gens)}
    n = len(gens)
    table = {}
    for (gj, gi), entry in brackets.items():
        terms = {}
        for g, c in entry.items():
            mono = tuple(1 if k == index[g] else 0 for k in range(n))
            terms[mono] = as_fraction(c)
        table[(gj, gi)] = terms
    pres = Presentation(gens, table)
    one = pres.one()
    coproducts = {g: tp(one, pres.gen(g)) + tp(pres.gen(g), one)
                  for g, _ in gens}
    antipodes = {g: -pres.gen(g) for g, _ in gens}
    H = PresentedHopfAlgebra(pres, coproducts, antipodes, name=name)
    return _certified(H, truncation)


@lru_cache(maxsize=None)
def build_enveloping_preset(preset: str, truncation: int = 6
                            ) -> PresentedHopfAlgebra:
    """Stock enveloping algebras: abelian1..abelian3, nonabelian2, heisenberg."""
    if preset.startswith("abelian"):
        n = int(preset[len("abelian"):] or "1")
        if n < 1:
            raise ValueError(f"abelian preset needs at least one generator, "
                             f"got {n}")
        if n > 3:
            raise ValueError(f"abelian preset takes at most 3 generators "
                             f"(abelian1..abelian3), got {n}")
        names = [f"X{i+1}" for i in range(n)]
        return build_enveloping(f"U({preset})", names, {}, truncation)
    if preset == "nonabelian2":
        return build_enveloping("U(nonabelian2)", ["X", "Y"],
                                {("Y", "X"): {"Y": -1}}, truncation)
    if preset == "heisenberg":
        return build_enveloping("U(heisenberg)", ["X", "Y", "Z"],
                                {("Y", "X"): {"Z": -1}}, truncation)
    raise ValueError(f"unknown enveloping preset {preset!r}")

ENVELOPING_PRESETS = ("abelian1", "abelian2", "abelian3", "nonabelian2",
                      "heisenberg")
