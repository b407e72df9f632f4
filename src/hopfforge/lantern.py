"""Graded Lie algebra extracted from the leading coproduct terms.

Each generator symbol contributes one basis vector, placed in degree
equal to the generator weight.  The bracket comes from pairing dual
basis vectors against the leading coproducts: only generator@generator
terms survive the pairing, so

    c_{ab}^e = coeff of g_a@g_b  -  coeff of g_b@g_a

in the leading coproduct of g_e.  No dual algebra object is ever
materialized.  The graded Lie axioms hold by proof (_extract_lantern), so
no Jacobi loop runs here; the tests' oracle verify_lie computes them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import linalg
from .hopf import PresentedHopfAlgebra
from .report import Report

if TYPE_CHECKING:  # grading imports this module
    from .grading import Signature


class GradedLieAlgebra:
    """Graded basis with structure constants; antisymmetry is built in.

    brackets[(a, b)] for a < b maps basis index e to the coefficient of
    basis vector e in [u_a, u_b]; pairs with zero bracket are absent.
    """

    def __init__(self, labels: tuple[str, ...], degrees: tuple[int, ...],
                 brackets: dict[tuple[int, int], dict[int, Fraction]]):
        self.labels, self.degrees = labels, degrees
        self.brackets = {
            pair: {e: Fraction(c) for e, c in table.items() if c}
            for pair, table in brackets.items()
            if any(table.values())}
        for (a, b) in self.brackets:
            if not 0 <= a < b < len(self.labels):
                raise ValueError("brackets must be stored for a < b")

    def bracket(self, a: int, b: int) -> dict[int, Fraction]:
        if a == b:
            return {}
        if a < b:
            return dict(self.brackets.get((a, b), {}))
        return {e: -c for e, c in self.brackets.get((b, a), {}).items()}

    def degree_indices(self, d: int) -> list[int]:
        return [i for i, deg in enumerate(self.degrees) if deg == d]

    def __str__(self):
        rels = []
        for (a, b), table in sorted(self.brackets.items()):
            rhs = " + ".join(
                (f"{c}*" if c != 1 else "") + f"u_{self.labels[e]}"
                for e, c in sorted(table.items()))
            rels.append(f"[u_{self.labels[a]},u_{self.labels[b]}] = {rhs}")
        body = "; ".join(rels) if rels else "abelian"
        gens = ", ".join(f"u_{l}({d})" for l, d in zip(self.labels, self.degrees))
        return f"<{gens} | {body}>"


def lantern(H: PresentedHopfAlgebra) -> GradedLieAlgebra:
    """The dual graded Lie algebra of H, held by its filtration certificate."""
    H._require_filtration()
    return H.filtration.lantern


def _extract_lantern(H: PresentedHopfAlgebra) -> GradedLieAlgebra:
    """Bracket table of the leading generator coproducts of a confluent H
    whose bialgebra axioms pass.  It is a graded Lie algebra by proof, so
    no Jacobi check runs: the table is dual to the cobracket that the
    leading coproduct induces on the generator symbols of gr_w H, and
    co-Jacobi follows from coassociativity of gr Delta.  The tests check
    this against the oracle verify_lie."""
    pres = H.presentation
    n, w = pres.ngens, pres.weights
    index = {tuple(1 if k == i else 0 for k in range(n)): i for i in range(n)}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for e in range(n):
        for (m1, m2), c in H._coproduct.images[e].terms.items():
            a, b = index.get(m1), index.get(m2)
            # leading generator@generator terms; g_a@g_b pairs to [u_a, u_b]
            if None not in (a, b) and a != b and w[a] + w[b] == w[e]:
                linalg.add_term(brackets.setdefault((min(a, b), max(a, b)), {}),
                                e, c if a < b else -c)
    return GradedLieAlgebra(tuple(pres.names), tuple(w), brackets)


def mobius(n: int) -> int:
    """Moebius function; mu(1)=1, mu(2)=mu(3)=-1, mu(4)=0, ..."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if m > 1:
        count += 1
    return 1 if count % 2 == 0 else -1


def _witt_bound(i: int, m1: int) -> Fraction:
    total = 0
    for d in range(1, i + 1):
        if i % d == 0:
            total += mobius(d) * m1 ** (i // d)
    return Fraction(total, i)


def numerology_report(sig: Signature) -> Report:
    """Numerical constraints satisfied by the signature of a full Hopf object.

    Verdicts: no gaps in the degree set, Witt bounds on the multiplicities,
    and the two-primitive bound when the total exceeds one.  Signatures of
    proper coideals may legitimately fail these checks.  Generation in
    degree one is the filtration certificate's carnot_report.
    """
    report = Report(f"numerology {sig}")
    degrees = sig.degrees()
    t = max(degrees) if degrees else 0
    no_gaps = degrees == list(range(1, t + 1))
    report.add("no gaps", no_gaps,
               f"degrees {{{', '.join(map(str, degrees))}}} vs expected "
               f"{{1..{t}}}")
    m1 = sig.multiplicity(1)
    for i in range(2, t + 1):
        bound = _witt_bound(i, m1)
        mi = sig.multiplicity(i)
        report.add(f"witt bound at degree {i}", Fraction(mi) <= bound,
                   f"m_{i} = {mi} <= {bound}")
    if sig.total > 1:
        report.add("at least two primitives", m1 >= 2, f"m_1 = {m1}")
    return report


def _carnot_check(L: GradedLieAlgebra, layers) -> Report:
    """Each degree layer above one must be spanned by brackets against
    degree 1; layers are those of _carnot_layers(L)."""
    report = Report("carnot")
    for d, got, size in layers:
        report.add(f"degree {d} generated from degree 1",
                   got == size, f"rank {got} of {size}")
    if max(L.degrees, default=0) <= 1:
        report.add("generated in degree 1", True, "no higher layers")
    return report


def _carnot_layers(L: GradedLieAlgebra):
    """(d, rank of [g_1, g_{d-1}] in g_d, dim g_d) per nonempty layer d >= 2."""
    ones = L.degree_indices(1)
    for d in range(2, max(L.degrees, default=0) + 1):
        layer = L.degree_indices(d)
        if not layer:
            continue
        col_of = {e: i for i, e in enumerate(layer)}
        rows = [{col_of[e]: c for e, c in L.bracket(x, y).items() if e in col_of}
                for x in ones for y in L.degree_indices(d - 1)]
        yield d, linalg.rank(rows, len(layer)), len(layer)
