"""Certification that generator weights realize the coalgebra filtration,
plus signatures and Hilbert series.

The certificate is exact: it proves that the span of monomials of weight
<= n is the n-th term of the coradical filtration for every n, by one
rank check per degree layer of the lantern g, the graded Lie algebra with
U(g) the graded dual of gr_w H (see certify_filtration).  Once it holds,
weights may be read as degrees: signatures and graded dimensions become
weight-level computations.
"""

from __future__ import annotations

from collections import Counter

from . import linalg
from .algebra import Element
from .hopf import (HopfAlgebraError, PresentedHopfAlgebra, _checked_antipode,
                   verify_bialgebra, verify_hopf)
from .lantern import (GradedLieAlgebra, _carnot_check, _carnot_layers,
                      _extract_lantern)
from .report import Report

DEFAULT_TRUNCATION = 6


def default_truncation(H: PresentedHopfAlgebra) -> int:
    return max(DEFAULT_TRUNCATION, 2 * max(H.presentation.weights))


class FiltrationError(HopfAlgebraError):
    """The weighted monomial filtration does not match the coalgebra one."""


class FiltrationCertificate:
    """Exact filtration certificate with the graded dimensions dim H(n).

    The weight filtration is the coradical filtration in every degree;
    truncation is only the order graded_dims is listed to.  lantern is the
    graded Lie algebra the certificate was read off (a Lie algebra by
    proof, see lantern._extract_lantern), with the Carnot-layer verdicts
    it passed (carnot_report).
    """

    def __init__(self, truncation: int, graded_dims: tuple[int, ...],
                 lantern: GradedLieAlgebra, carnot_report: Report):
        if len(graded_dims) != truncation + 1:
            raise ValueError("need one dimension per degree 0..truncation")
        if graded_dims[0] != 1:
            raise ValueError("degree-0 layer must be one-dimensional")
        self.truncation, self.graded_dims = truncation, graded_dims
        self.lantern, self.carnot_report = lantern, carnot_report


class Signature:
    """Multiset of generator degrees as sorted (degree, multiplicity) pairs."""

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        degrees = [d for d, _ in pairs]
        if degrees != sorted(set(degrees)):
            raise ValueError("degrees must be strictly increasing")
        if any(m <= 0 or d <= 0 for d, m in pairs):
            raise ValueError("degrees and multiplicities must be positive")
        self.pairs = pairs

    def __eq__(self, other):
        return type(other) is Signature and other.pairs == self.pairs

    def __hash__(self):
        return hash(self.pairs)

    @classmethod
    def from_weights(cls, weights) -> "Signature":
        return cls(tuple(sorted(Counter(weights).items())))

    @property
    def total(self) -> int:
        return sum(d * m for d, m in self.pairs)

    def multiplicity(self, degree: int) -> int:
        for d, m in self.pairs:
            if d == degree:
                return m
        return 0

    def degrees(self) -> list[int]:
        return [d for d, _ in self.pairs]

    def as_multiset(self) -> list[int]:
        out = []
        for d, m in self.pairs:
            out.extend([d] * m)
        return out

    def __str__(self):
        if not self.pairs:
            return "()"
        parts = [f"{d}^{m}" if m > 1 else f"{d}" for d, m in self.pairs]
        return "(" + ", ".join(parts) + ")"


class PowerSeries:
    """Truncated power series with integer coefficients."""

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if len(coeffs) != order + 1:
            raise ValueError("need order+1 coefficients")
        self.order, self.coeffs = order, coeffs

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(parts) if parts else "0"


def certify_filtration(H: PresentedHopfAlgebra, truncation: int | None = None
                       ) -> FiltrationCertificate:
    """Certify that the weight filtration is the coradical filtration.

    Checks that the lantern g (read off the leading generator coproducts,
    and kept on the certificate) is generated by g_1: each layer g_d,
    d >= 2, is spanned by [g_1, g_{d-1}].  The truncation, at least the
    largest generator weight (else ValueError), is only the order the
    dims are listed to.  The bialgebra axioms are checked first
    (verify_bialgebra, which certify has already run); a failure raises
    HopfAlgebraError naming the first failing check.

    Soundness: termination and confluence make gr_w H the polynomial ring
    on the generator symbols, a commutative connected graded Hopf algebra
    whose reduced coproduct is the leading part.  In characteristic 0 its
    graded dual is U(g) (Milnor-Moore), so P(gr_w H)_d is dual to
    (g/[g,g])_d (PBW).  Hence gr_w H is coradically graded (Andruskiewitsch-
    Schneider), i.e. the weight filtration is the coradical one, iff
    P(gr_w H) sits in degree 1, iff g/[g,g] does, iff g_1 generates g.

    Witnesses are computed only on failure: a generator of weight w has
    zero w-fold reduced coproduct (w + 1 legs of weight >= 1 in weight
    <= w), so a lower coradical degree is named as a reweight; else at the
    lowest failing layer d, [g,g]_d = [g_1, g_{d-1}], so d is the lowest
    degree >= 2 where gr_w H has a primitive, found as a kernel vector.
    """
    pres = H.presentation
    if truncation is None:
        truncation = default_truncation(H)
    least = max(pres.weights, default=0)
    if truncation < least:
        raise ValueError(
            f"truncation {truncation} is below the largest generator weight "
            f"{least}; the filtration certificate needs truncation >= {least}")
    bialgebra = verify_bialgebra(H)  # memoized: certify() has run it
    if not bialgebra.passed:
        first = bialgebra.failures()[0].name
        what = ("the coproduct is not coassociative"
                if first.startswith("coassociativity")
                else "the bialgebra axioms fail")
        raise HopfAlgebraError(f"{what} ({first}); not certifying the "
                               "filtration")
    L = _extract_lantern(H)
    layers = list(_carnot_layers(L))
    d = next((d for d, got, size in layers if got < size), None)
    if d is not None:  # failure-path witnesses
        for i, (g, w) in enumerate(zip(pres.names, pres.weights)):
            deg = next((n for n in range(1, w)
                        if not H.iterated_reduced_coproduct(pres.gen(i), n)), w)
            if deg != w:
                raise FiltrationError(
                    f"reweight {g} to {deg}: declared weight {w} "
                    "is not its coradical degree")
        kernel = linalg.kernel(
            {m: _leading_terms(
                pres, H.reduced_coproduct(pres.monomial(m)).terms, d)
             for m in pres.monomials_of_weight(d)})
        if not kernel:  # excluded by the bialgebra axioms checked above
            raise HopfAlgebraError(f"no primitive leading symbol at degree {d}"
                                   " although the bialgebra axioms hold")
        symbol = Element(pres, kernel[0])
        raise FiltrationError(
            f"{symbol} has a primitive leading symbol of weight {d}: "
            f"first failure at degree {d}")
    dims = hilbert_series(Signature.from_weights(pres.weights), truncation).coeffs
    cert = FiltrationCertificate(truncation, dims, L, _carnot_check(L, layers))
    H.filtration = cert
    return cert


def certify(H: PresentedHopfAlgebra, truncation: int | None = None) -> Report:
    """Run the whole certificate pipeline and attach everything that passes.

    Order: termination+confluence, bialgebra axioms, antipode
    (solved when absent), full Hopf axioms, filtration.  Later stages are
    skipped once a stage fails; the combined report records how far
    certification got, and is attached as H.certification when it passes.
    """
    report = Report(f"{H.name}: certification")
    report.extend(H.presentation.certify())
    if H.presentation.certificate is None:
        return report
    try:
        _checked_antipode(H)  # computes no antipode image
    except HopfAlgebraError as exc:
        report.add("antipode", False, str(exc))
        return report
    axioms = verify_hopf(H)
    report.extend(axioms)
    if not axioms.passed:
        return report
    try:
        cert = certify_filtration(H, truncation)
    except FiltrationError as exc:
        report.add("filtration", False, str(exc))
        return report
    report.add("filtration", True,
               f"graded dims {list(cert.graded_dims)} to order {cert.truncation}")
    H.certification = report
    return report


def signature(H: PresentedHopfAlgebra) -> Signature:
    """Multiset of generator weights; meaningful once the filtration holds."""
    H._require_filtration()
    return Signature.from_weights(H.presentation.weights)


def hilbert_series(sig: Signature, order: int) -> PowerSeries:
    """Truncated expansion of prod_i 1/(1 - t^d)^m over the signature."""
    coeffs = [1] + [0] * order
    for d in sig.as_multiset():
        for k in range(d, order + 1):  # multiply by 1/(1 - t^d)
            coeffs[k] += coeffs[k - d]
    return PowerSeries(order, tuple(coeffs))


def hilbert_divides(sub: Signature, full: Signature) -> Signature | None:
    """The complementary multiset when sub is a sub-multiset of full, else None."""
    remaining = full.as_multiset()
    for d in sub.as_multiset():
        if d in remaining:
            remaining.remove(d)
        else:
            return None
    return Signature.from_weights(remaining)


def _leading_terms(pres, terms: dict, d: int) -> dict:
    """The terms m@m' of an arity-2 tensor with weight(m) + weight(m') = d."""
    mw = pres.monomial_weight
    return {(a, b): c for (a, b), c in terms.items() if mw(a) + mw(b) == d}
