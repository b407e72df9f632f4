"""Certification that generator weights realize the coalgebra filtration,
plus signatures, Hilbert series and leading coproducts.

The certificate is exact: it proves that the span of monomials of weight
<= n is the n-th term of the coradical filtration for every n, by one
rank check per weight 2..max generator weight on the associated graded
(see certify_filtration).  Once it holds, weights may be read as degrees:
signatures, graded dimensions and the leading coproduct all become
weight-level computations.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import Element
from .hopf import (HopfAlgebraError, PresentedHopfAlgebra, solve_antipode,
                   verify_hopf)
from .report import Report
from .tensor import TensorElement

DEFAULT_TRUNCATION = 6


def default_truncation(H: PresentedHopfAlgebra) -> int:
    return max(DEFAULT_TRUNCATION, 2 * max(H.presentation.weights))


class FiltrationError(HopfAlgebraError):
    """The weighted monomial filtration does not match the coalgebra one."""


@dataclass(frozen=True)
class FiltrationCertificate:
    """Exact filtration certificate with the graded dimensions dim H(n).

    The weight filtration is the coradical filtration in every degree;
    truncation is only the order graded_dims is listed to.
    """

    truncation: int
    graded_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.graded_dims) != self.truncation + 1:
            raise ValueError("need one dimension per degree 0..truncation")
        if self.graded_dims[0] != 1:
            raise ValueError("degree-0 layer must be one-dimensional")

    def cumulative(self, n: int) -> int:
        return sum(self.graded_dims[:n + 1])


@dataclass(frozen=True)
class Signature:
    """Multiset of generator degrees as sorted (degree, multiplicity) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        degrees = [d for d, _ in self.pairs]
        if degrees != sorted(set(degrees)):
            raise ValueError("degrees must be strictly increasing")
        if any(m <= 0 or d <= 0 for d, m in self.pairs):
            raise ValueError("degrees and multiplicities must be positive")

    @classmethod
    def from_weights(cls, weights) -> "Signature":
        counts: dict[int, int] = {}
        for w in weights:
            counts[w] = counts.get(w, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @property
    def generator_count(self) -> int:
        return sum(m for _, m in self.pairs)

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


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with integer coefficients."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need order+1 coefficients")

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

    Checks that each generator's coradical degree is its weight, and that
    for each d in 2..max generator weight the leading reduced coproduct
    (terms of total weight d) is injective on the weight-d monomials.  The
    truncation, at least the largest generator weight (else ValueError),
    is only the order the dims are listed to.  Attaches the certificate.

    Soundness: termination and confluence make gr_w H the polynomial ring
    on the generator symbols, a commutative connected graded Hopf algebra
    whose reduced coproduct is the leading part.  In characteristic 0 its
    primitives inject into its indecomposables, which live in degrees <=
    max weight (Milnor-Moore), so the check passes iff P(gr_w H) sits in
    degree 1, iff gr_w H is coradically graded (Andruskiewitsch-
    Schneider), iff the weight filtration is the coradical one, iff the
    kernel of the n-fold reduced coproduct on the non-identity monomials
    of weight <= T is spanned by those of weight <= n for all n <= T, at
    any T >= max weight.  Conversely a primitive symbol of weight d lifts
    to x in W_d whose reduced coproduct lies in sum_{i+j<=d-1} W_i@W_j, so
    the (d-1)-fold reduced coproduct of x vanishes with x not in W_{d-1}:
    the truncated check fails at n = d - 1.
    """
    pres = H.presentation
    if truncation is None:
        truncation = default_truncation(H)
    least = max(pres.weights, default=0)
    if truncation < least:
        raise ValueError(
            f"truncation {truncation} is below the largest generator weight "
            f"{least}; the filtration certificate needs truncation >= {least}")
    H._require_confluence()
    for i, g in enumerate(pres.names):
        # the coradical degree of g, read before the certificate exists
        deg = next((n for n in range(1, pres.weights[i] + 1)
                    if not H.iterated_reduced_coproduct(pres.gen(i), n)), None)
        if deg is None:
            raise HopfAlgebraError(
                "reduced coproduct fails to vanish within the weight bound; "
                "coproduct data is inconsistent with the declared weights")
        if deg != pres.weights[i]:
            raise FiltrationError(
                f"reweight {g} to {deg}: declared weight {pres.weights[i]} "
                "is not its coradical degree")
    for d in range(2, least + 1):
        monomials = pres.monomials_of_weight(d)
        ncols = len(monomials)
        rows: dict = {}
        for col, mono in enumerate(monomials):
            leading = _leading_terms(pres, H._reduced_monomial(mono), d)
            for key, c in leading.items():
                rows.setdefault(key, {})[col] = c
        matrix = list(rows.values())
        if linalg.rank(matrix, ncols) < ncols:
            vec = linalg.clear_denominators(
                linalg.kernel_basis(matrix, ncols)[0])
            symbol = Element(pres, {monomials[j]: c for j, c in vec.items()})
            raise FiltrationError(
                f"{symbol} has a primitive leading symbol of weight {d}: "
                f"first failure at degree {d}")
    dims = tuple(len(pres.monomials_of_weight(n)) for n in range(truncation + 1))
    cert = FiltrationCertificate(truncation, dims)
    H.filtration = cert
    return cert


def certify(H: PresentedHopfAlgebra, truncation: int | None = None) -> Report:
    """Run the whole certificate pipeline and attach everything that passes.

    Order: termination+confluence, bialgebra axioms, antipode
    (solved when absent), full Hopf axioms, filtration.  Later stages are
    skipped once a stage fails; the combined report records how far
    certification got.
    """
    report = Report(f"{H.name}: certification")
    pres_report = H.certify_presentation()
    report.extend(pres_report)
    if not pres_report.passed:
        return report
    try:
        solve_antipode(H)
    except HopfAlgebraError as exc:
        report.add("antipode", False, str(exc))
        return report
    hopf_report = verify_hopf(H)
    report.extend(hopf_report)
    if not hopf_report.passed:
        return report
    try:
        cert = certify_filtration(H, truncation)
    except FiltrationError as exc:
        report.add("filtration", False, str(exc))
        return report
    report.add("filtration", True,
               f"graded dims {list(cert.graded_dims)} to order {cert.truncation}")
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
    return {key: c for key, c in terms.items() if mw(key[0]) + mw(key[1]) == d}


def graded_coproduct_leading(H: PresentedHopfAlgebra, gen) -> TensorElement:
    """Weight-homogeneous top part of a generator coproduct.

    Keeps the terms m@m' with weight(m) + weight(m') equal to the
    generator weight; this is the coproduct induced on the generator's
    symbol in the associated graded algebra.
    """
    H._require_filtration()
    pres = H.presentation
    i = pres.index(gen)
    t = H.coproduct(pres.gen(i))
    return TensorElement(pres, 2, _leading_terms(pres, t.terms, pres.weights[i]))
