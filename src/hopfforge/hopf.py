"""Hopf-algebra structure on a presented algebra.

Structure maps are given on generators and extended: the coproduct and
counit multiplicatively, the antipode and its inverse
anti-multiplicatively.  Coproduct, antipode and S^-1 are
algebra.GeneratorMaps; verify_bialgebra and verify_hopf
compute the relation defects and coassociativity lines that no proof
covers.  Generators are normalized into the counit kernel, and every
generator coproduct must contain the terms 1@g and g@1 with coefficient
one and nothing else with an identity leg; together with the weight bound
on coproduct terms this is the connectedness normal form that makes the
reduced-coproduct iteration terminate.  The counit axioms hold by
construction on it, so verify_bialgebra recomputes none.

Each certificate has one owner that computes it once: confluence is the
presentation's (Presentation.certify), the filtration and the passing
certification are grading's.  A guard tests presence and rescans no
report; a query never replaces one.  Memo tables hold linalg's scaled
pairs on mono ids (tensor ones on packed keys, which only ``tensor`` reads).
H answers the questions of a coideal subalgebra T (coideal.SubalgebraSpec)
as T = H, so the invariants of T take H and its subalgebras alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import linalg
from .algebra import (ONE, Element, GeneratorMap, Presentation,
                      PresentationMismatchError, format_monomial)
from .report import Report
from .tensor import TensorElement, pack, unpack


class HopfAlgebraError(Exception):
    pass


class CertificateMissingError(HopfAlgebraError):
    """An operation needed a certificate that is absent or failing."""


class AntipodeSolveError(HopfAlgebraError):
    pass


class PresentedHopfAlgebra:
    """A presented algebra together with coproduct/counit/antipode data."""

    side = "hopf"  # H as a coideal subalgebra of itself

    def __init__(self, presentation: Presentation,
                 coproducts: Mapping, antipodes: Mapping | None = None,
                 name: str = "H"):
        self.name = name
        self.presentation = presentation
        coproducts = presentation.indexed(coproducts)
        for i, g in enumerate(presentation.names):
            if i not in coproducts:
                raise ValueError(f"missing coproduct for generator {g}")
        self._coproduct = GeneratorMap(presentation, {
            i: self._validate_coproduct(i, value)
            for i, value in coproducts.items()},
            TensorElement.unit(presentation, 2), False)
        # memo tables on monomial ids, in scaled form
        self._coprod_mono: dict[int, tuple] = self._coproduct.memo
        self._reduced_iter: dict[tuple[int, int], tuple] = {}
        self._antipode_mono: dict[int, tuple] = {}
        self._antipode: GeneratorMap | None = None
        self._antipode_inverse: GeneratorMap | None = None  # on first use
        if antipodes is not None:
            self.attach_antipode(antipodes)
        # write-once certificates
        self._bialgebra: Report | None = None
        self._convolution: Report | None = None
        self._hopf: Report | None = None
        self.filtration = None  # grading.FiltrationCertificate
        self.certification: Report | None = None  # passing certify() report

    # -- construction-time validation ------------------------------------

    def _validate_coproduct(self, i: int, value) -> TensorElement:
        """value, checked in connectedness normal form: with it the counit
        axioms (eps@id)Delta(g) = g = (id@eps)Delta(g) hold."""
        pres = self.presentation
        if not isinstance(value, TensorElement):
            value = TensorElement.from_terms(pres, 2, value)
        elif value.algebra is not pres or value.arity != 2:
            raise ValueError("coproduct data must be an arity-2 tensor over "
                             "the same presentation")
        nums, den = value.scaled
        g, w, one = pres.names[i], pres.weights[i], pres.identity_monomial()
        gen = tuple(1 if k == i else 0 for k in range(pres.ngens))
        ends = (pack(pres, (one, gen)), pack(pres, (gen, one)))
        if nums.get(ends[0]) != den or nums.get(ends[1]) != den:
            raise ValueError(
                f"coproduct of {g} must contain 1@{g} and {g}@1 with coefficient 1")
        for key in nums:
            m1, m2 = unpack(pres, 2, key)
            if (m1 == one or m2 == one) and key not in ends:
                raise ValueError(
                    f"coproduct of {g} has a stray identity leg in "
                    f"{format_monomial(pres, m1)}@{format_monomial(pres, m2)}")
            weight = pres.monomial_weight(m1) + pres.monomial_weight(m2)
            if weight > w:
                raise ValueError(
                    f"coproduct of {g} has a term of weight {weight} "
                    f"above the declared weight {w}; reweight {g}")
        return value

    def attach_antipode(self, antipodes: Mapping) -> None:
        if self._antipode is not None:
            raise HopfAlgebraError("antipode data already attached")
        pres = self.presentation
        table = {i: v if isinstance(v, Element) else pres.element(v)
                 for i, v in pres.indexed(antipodes).items()}
        for i, g in enumerate(pres.names):
            if i not in table:
                raise ValueError(f"missing antipode for generator {g}")
            if table[i].algebra is not pres:
                raise ValueError("antipode data from another presentation")
            w = table[i].weight
            if w is not None and w > pres.weights[i]:
                raise ValueError(f"antipode of {g} is heavier than the generator")
        self._antipode = GeneratorMap(pres, table, pres.one(), True)
        self._antipode_mono = self._antipode.memo

    # -- certificates -------------------------------------------------------

    def _require_confluence(self) -> None:
        if self.presentation.certificate is None:
            raise CertificateMissingError(
                f"{self.name}: confluence certificate absent or failing; "
                "run presentation.certify() first")

    def _require_antipode(self) -> None:
        if self._antipode is None:
            raise AntipodeSolveError(
                f"{self.name}: antipode data absent; solve_antipode first")

    def _require_filtration(self) -> None:
        if self.filtration is None:
            raise CertificateMissingError(
                f"{self.name}: filtration certificate absent; certify first")

    # -- H as its own target, with the identity embedding -------------------

    @property
    def host(self) -> "PresentedHopfAlgebra":
        return self

    def embed_generator(self, g) -> Element:
        return self.gen(g)

    def embed(self, x: Element) -> Element:
        return x

    def represent(self, h: Element) -> Element:
        return h

    # -- element factories ---------------------------------------------------

    def gen(self, g) -> Element:
        return self.presentation.gen(g)

    def one(self) -> Element:
        return self.presentation.one()

    def zero(self) -> Element:
        return self.presentation.zero()

    def scalar(self, c) -> Element:
        return self.presentation.scalar(c)

    # -- coalgebra structure ---------------------------------------------------

    def coproduct(self, x: Element) -> TensorElement:
        """Multiplicative extension of the generator coproducts."""
        self._require_confluence()
        return self._coproduct(x)

    def counit(self, x: Element) -> Fraction:
        """Coefficient of the identity monomial."""
        return x.constant_term()

    def reduced_coproduct(self, x: Element) -> TensorElement:
        """coproduct(x) - 1@x - x@1, defined on the counit kernel."""
        return self.iterated_reduced_coproduct(x, 1)

    def _reduced_iterate_monomial(self, i: int, n: int) -> tuple:
        """The n-fold reduced coproduct of the monomial with id i, not 1
        (memoized, scaled), iterated on the first leg."""
        key = (i, n)
        cached = self._reduced_iter.get(key)
        if cached is None:
            pres = self.presentation
            if n == 1:
                x, one = Element.from_scaled(pres, {i: 1}, 1), pres.identity_monomial()
                (mono,) = x.terms
                cached = (self._coproduct(x) - TensorElement(
                    pres, 2, {(one, mono): ONE, (mono, one): ONE})).scaled
            else:
                cached = TensorElement.from_scaled(
                    pres, n, *self._reduced_iterate_monomial(i, n - 1)
                ).apply_to_leg(1, self.reduced_coproduct).scaled
            self._reduced_iter[key] = cached
        return cached

    def iterated_reduced_coproduct(self, x: Element, n: int) -> TensorElement:
        """n-fold reduced coproduct, iterated on the first leg; arity n+1."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if x.algebra is not self.presentation:
            raise PresentationMismatchError(
                "reduced coproduct of an element of another presentation")
        if self.counit(x):
            raise ValueError("reduced coproduct needs counit(x) = 0")
        self._require_confluence()
        return TensorElement.from_scaled(
            self.presentation, n + 1, *linalg.extend_scaled(
                *x.scaled, lambda i: self._reduced_iterate_monomial(i, n)))

    def coradical_degree(self, x: Element) -> int:
        """Smallest n with the n-fold reduced coproduct of x - counit(x) zero.

        The filtration certificate makes the weight filtration the
        coradical one, so this is the weight of x - counit(x).
        """
        self._require_filtration()
        if not x:
            raise ValueError("coradical degree of 0 is undefined")
        return (x - self.scalar(self.counit(x))).weight or 0

    # -- antipode -----------------------------------------------------------

    def antipode(self, x: Element) -> Element:
        """Anti-multiplicative extension of the generator antipodes."""
        self._require_antipode()
        return self._antipode(x)

    def s_squared(self, x: Element) -> Element:
        return self.antipode(self.antipode(x))

    def antipode_inverse(self, x: Element) -> Element:
        """The y with antipode(y) = x: the anti-algebra GeneratorMap of the
        S^-1(g), filled on first use in ascending weight by the recursion
        that defines S, read on H^cop:

            S^-1(g) = -g - sum S^-1(g'')g'  over the reduced coproduct
            sum g'@g'' of g; both legs are strictly lighter than g
            (_validate_coproduct), so only filled images are read.

        H is connected, so S is bijective and S^-1 is the antipode of H^cop
        (Takeuchi 1971; Montgomery, Hopf Algebras and Their Actions on
        Rings, 1993, Lemma 1.5.11), hence an anti-algebra map of H's
        algebra.  Its convolution identity on H^cop, whose coproduct is
        1@g + g@1 + sum g''@g', reads S^-1(g) + g + sum S^-1(g'')g' = 0.
        By induction on weight S^-1 agrees with the map on every generator:
        the g'' lie in the span of monomials in lighter generators, where
        both are the anti-multiplicative products of the same generator
        images.  This is the argument verify_hopf gives for S."""
        self._require_antipode()
        if not x:
            return self.zero()
        self._require_filtration()
        if self._antipode_inverse is None:
            self._antipode_inverse = _ConvolutionInverse(self, 1).map
        return self._antipode_inverse(x)

    def __repr__(self):
        return f"PresentedHopfAlgebra({self.name})"


def verify_bialgebra(H: PresentedHopfAlgebra) -> Report:
    """Relation compatibility of coproduct/counit, coassociativity, and
    the counit axioms, which hold by _validate_coproduct.  Three families
    of lines are theorems and are not computed:

    - Coassociativity on g of weight <= 2.  Every term of the reduced
      coproduct Delta(g) - g@1 - 1@g has two non-identity legs of total
      weight <= w_g, so a weight-1 generator is primitive and a weight-2
      one has Delta(g) = g@1 + 1@g + sum c_ab x_a@x_b over weight-1, so
      primitive, generators x_a, x_b.
      Both (Delta@id)Delta(g) and (id@Delta)Delta(g) then expand to
      g@1@1 + 1@g@1 + 1@1@g + sum c_ab (x_a@x_b@1 + x_a@1@x_b + 1@x_a@x_b).
    - "coproduct respects [x_j,x_i]" with w_j = w_i = 1: both are
      primitive, so [Delta x_j, Delta x_i] = c@1 + 1@c for the table entry
      c, of weight <= 1 by the termination check in the confluence
      certificate; c is a scalar plus primitives, Delta(c) = c@1 + 1@c -
      eps(c) 1@1, and the defect eps(c) 1@1 is zero exactly when the
      counit line passes.
    - The counit axioms, by _validate_coproduct.
    """
    H._require_confluence()
    if H._bialgebra is not None:
        return H._bialgebra
    pres, w = H.presentation, H.presentation.weights
    report = Report(f"{H.name}: bialgebra")
    for j, i in sorted(pres.table):
        rel = f"[{pres.names[j]},{pres.names[i]}]"
        counit = H.counit(pres.commutator_entry(j, i)) == 0
        report.add(f"coproduct respects {rel}", counit if w[j] == w[i] == 1
                   else not H._coproduct.relation_defect(j, i))
        report.add(f"counit respects {rel}", counit)
    for k, g in enumerate(pres.names):
        holds = True  # by weight
        if w[k] > 2:
            t = H.coproduct(pres.gen(k))
            holds = t.apply_to_leg(1, H.coproduct) == t.apply_to_leg(
                2, H.coproduct)
        report.add(f"coassociativity on {g}", holds)
        report.add(f"counit axiom on {g}", True)  # by _validate_coproduct
    H._bialgebra = report
    return report


def solve_antipode(H: PresentedHopfAlgebra) -> dict[str, Element]:
    """{name: S(g)} for every generator, each computed, of H's unique
    antipode (Takeuchi 1971); _checked_antipode raises AntipodeSolveError."""
    images = _checked_antipode(H).images
    return {g: images[i] for i, g in enumerate(H.presentation.names)}


def _checked_antipode(H: PresentedHopfAlgebra) -> GeneratorMap:
    """The antipode by _antipode_recursion: the attached data, checked, or
    the S it defines, with no image computed.  Raises AntipodeSolveError
    when the bialgebra axioms or that check fail."""
    bire = verify_bialgebra(H)
    if not bire.passed:
        raise AntipodeSolveError(
            "bialgebra checks fail; not solving the antipode: "
            + "; ".join(c.name for c in bire.failures()))
    rep = _antipode_recursion(H)
    if not rep.passed:
        raise AntipodeSolveError(
            "attached antipode data violates the convolution identities: "
            + "; ".join(c.name for c in rep.failures()))
    return H._antipode


def _recursion(H: PresentedHopfAlgebra, leg: int, i: int,
               f: GeneratorMap) -> Element:
    """-g - sum f(c)m over the leg cofactors (m, c) of the reduced coproduct
    of g = x_i: -g on weight 1, where g is primitive (_validate_coproduct)."""
    pres = H.presentation
    y = -pres.gen(i)
    if pres.weights[i] > 1:
        for m, c in H.reduced_coproduct(pres.gen(i)).leg_cofactors(leg):
            y -= f(c) * pres.monomial(m)
    return y


class _ConvolutionInverse(dict):
    """The generator images of S (leg 2) or S^-1 (leg 1), all filled by
    _recursion on first use in (weight, index) order, as each reads only
    lighter ones; ``map`` is their anti-algebra GeneratorMap."""

    def __init__(self, H: PresentedHopfAlgebra, leg: int):
        self.H, self.leg = H, leg
        self.map = GeneratorMap(H.presentation, self, H.one(), True)

    def __missing__(self, i: int) -> Element:
        w = self.H.presentation.weights
        for k in sorted(range(len(w)), key=lambda k: (w[k], k)):
            self[k] = _recursion(self.H, self.leg, k, self.map)
        return self[i]


def _antipode_recursion(H: PresentedHopfAlgebra) -> Report:
    """S(g) = -g - sum S(g')g'' over the reduced coproduct sum g'@g'' of
    each generator, in ascending weight: first legs are strictly lighter
    (_validate_coproduct).  Without antipode data this defines S(g): S is
    attached as _ConvolutionInverse's map, which computes S(g) on first
    use, and each line holds by definition.  Attached data is checked
    against it, which is the left convolution identity on g.  The report,
    one line per generator in declaration order, is memoized.

    The right identity follows: H is connected (_validate_coproduct), so
    id has a two-sided convolution inverse (Takeuchi 1971), and an
    anti-algebra map (verify_hopf's relation lines) meeting the left
    identity on generators meets it on H, so it is that inverse.
    """
    if H._convolution is not None:
        return H._convolution
    S, names = H._antipode, H.presentation.names
    report = Report(f"{H.name}: convolution")
    for i, g in enumerate(names):
        report.add(f"antipode axiom on {g}", S is None
                   or S.images[i] == _recursion(H, 2, i, S))
    if S is None:
        H._antipode = _ConvolutionInverse(H, 2).map
        H._antipode_mono = H._antipode.memo
    H._convolution = report
    return report


def verify_hopf(H: PresentedHopfAlgebra) -> Report:
    """All four axiom groups on generators (sufficient for (anti)algebra maps).

    (a) the coproduct, counit and antipode respect every relation;
    (b) coassociativity; (c) the counit axioms, by construction; (d) both
    convolution identities for the antipode: the left one by
    _antipode_recursion, the right one by proof (see there).

    Once the bialgebra and convolution reports pass, the antipode respects
    every relation by proof.  H is then a connected bialgebra, so it has
    an antipode S_H, an anti-algebra map (Takeuchi 1971), and S_H meets
    the recursion S(g) = -g - sum S(g')g'' of _antipode_recursion.  By
    induction on weight S agrees with S_H on every generator: the legs g'
    are strictly lighter, and S on a monomial is the anti-multiplicative
    product of its generator images, as S_H is.  So each defect is
    S_H(x_j x_i - x_i x_j - [x_j,x_i]) = S_H(0) = 0.  Otherwise the
    defects are computed.
    """
    H._require_antipode()  # verify_bialgebra requires confluence
    if H._hopf is not None:
        return H._hopf
    pres = H.presentation
    report = Report(f"{H.name}: hopf axioms")
    bialgebra, convolution = verify_bialgebra(H), _antipode_recursion(H)
    report.extend(bialgebra)
    defects = (((j, i, None) for j, i in sorted(pres.table))
               if bialgebra.passed and convolution.passed
               else H._antipode.relation_defects())
    for j, i, defect in defects:
        report.add(f"antipode respects [{pres.names[j]},{pres.names[i]}]",
                   not defect)
    report.extend(convolution)
    H._hopf = report
    return report

