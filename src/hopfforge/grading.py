"""Certification that generator weights realize the coalgebra filtration,
plus signatures, Hilbert series and leading coproducts.

The certificate is the computational witness, up to a truncation order,
that the span of monomials of weight <= n is exactly the kernel of the
n-fold reduced coproduct.  Once it holds, weights may be read as degrees:
signatures, graded dimensions and the leading coproduct all become
weight-level computations.  Every certified result is reported together
with the truncation order it was verified at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import ZERO
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
    """Verified graded dimensions dim H(n) for n <= truncation."""

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
    """Verify that weight-n monomial spans are the degree-n filtration layers.

    For every n <= truncation the kernel of the n-fold reduced coproduct
    on the non-identity monomials of weight <= truncation must be exactly
    the span of those of weight <= n; every generator's coradical degree
    must equal its declared weight.  The certificate is attached to H.
    Below the largest generator weight the check would be vacuous, so a
    smaller truncation raises ValueError.
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
        deg = H.coradical_degree(pres.gen(i))
        if deg != pres.weights[i]:
            raise FiltrationError(
                f"reweight {g} to {deg}: declared weight {pres.weights[i]} "
                "is not its coradical degree")
    monomials = pres.monomials_up_to(truncation, include_identity=False)
    ncols = len(monomials)
    weights = [pres.monomial_weight(m) for m in monomials]
    dims = [1]
    for n in range(1, truncation + 1):
        expected = 0
        rows: dict = {}
        for col in range(ncols):
            terms = H._reduced_iterate_monomial(monomials[col], n)
            if weights[col] <= n:
                expected += 1
                if terms:
                    raise FiltrationError(
                        f"monomial of weight {weights[col]} is not in "
                        f"filtration degree {n}: first failure at degree {n}")
            else:
                for key, c in terms.items():
                    rows.setdefault(key, {})[col] = c
        kernel_dim = ncols - linalg.rank(list(rows.values()), ncols)
        if kernel_dim != expected:
            raise FiltrationError(
                f"kernel of the {n}-fold reduced coproduct has dimension "
                f"{kernel_dim}, expected {expected}: first failure at "
                f"degree {n}")
        dims.append(len(pres.monomials_of_weight(n)))
    cert = FiltrationCertificate(truncation, tuple(dims))
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
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for d, m in sig.pairs:
        for _ in range(m):
            # multiply by 1/(1 - t^d) = 1 + t^d + t^2d + ...
            new = [ZERO] * (order + 1)
            for i, c in enumerate(coeffs):
                if not c:
                    continue
                k = i
                while k <= order:
                    new[k] += c
                    k += d
            coeffs = new
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise HopfAlgebraError("hilbert series produced a non-integer")
        out.append(int(c))
    return PowerSeries(order, tuple(out))


def hilbert_divides(sub: Signature, full: Signature) -> Signature | None:
    """The complementary multiset when sub is a sub-multiset of full, else None."""
    remaining = full.as_multiset()
    for d in sub.as_multiset():
        if d in remaining:
            remaining.remove(d)
        else:
            return None
    return Signature.from_weights(remaining)


def graded_coproduct_leading(H: PresentedHopfAlgebra, gen) -> TensorElement:
    """Weight-homogeneous top part of a generator coproduct.

    Keeps the terms m@m' with weight(m) + weight(m') equal to the
    generator weight; this is the coproduct induced on the generator's
    symbol in the associated graded algebra.
    """
    H._require_filtration()
    pres = H.presentation
    i = pres.index(gen)
    w = pres.weights[i]
    mw = pres.monomial_weight
    t = H.coproduct(pres.gen(i))
    terms = {key: c for key, c in t.terms.items()
             if mw(key[0]) + mw(key[1]) == w}
    return TensorElement(pres, 2, terms)
