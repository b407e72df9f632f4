"""Subalgebras of a host Hopf algebra: registration, coideal certificates,
antipode images and containment.

A subalgebra is always supplied *with* its own presentation (generators,
weights, commutator table) and an embedding into the host; the tool
verifies the data rather than discovering presentations.  SubalgebraSpec
holds the embedding and its membership solver, and answers the target
questions that the host answers too (side, host, embed_generator, embed,
represent).  Registration certifies that the leading symbols (top-weight
parts) of the generator images are algebraically independent in gr H =
k[x] (_symbol_rank).  Then gr T = k[symbols], so an ordered T-monomial's
image has exactly its T-weight, and membership of h solved over the
T-monomials up to weight(h) is exact at every weight.  A derived
subalgebra (antipode_image) carries its source's certificates by proof.
"""

from __future__ import annotations

from math import prod

from . import linalg
from .algebra import (Element, GeneratorMap, Monomial, Presentation,
                      PresentationMismatchError, format_monomial)
from .grading import Signature
from .hopf import (CertificateMissingError, HopfAlgebraError,
                   PresentedHopfAlgebra)
from .report import Report


class RegistrationError(HopfAlgebraError):
    """The supplied subalgebra data failed a registration certificate."""


SIDES = ("left", "right", "hopf")


class SubalgebraSpec:
    """A presented subalgebra embedded in a host (``image``, a
    GeneratorMap), with its certificates and membership solver."""

    def __init__(self, host: PresentedHopfAlgebra, name: str,
                 presentation: Presentation, embedding: dict,
                 side: str):
        if side not in SIDES:
            raise ValueError("side must be left, right or hopf")
        self.host = host
        self.name = name
        self.presentation = presentation
        self.side = side
        self.embedding: dict[int, Element] = {}
        for i, img in presentation.indexed(embedding).items():
            img = img if isinstance(img, Element) else host.presentation.element(img)
            if img.algebra is not host.presentation:
                raise ValueError("embedding images must live in the host")
            self.embedding[i] = img
        for i in range(presentation.ngens):
            if i not in self.embedding:
                raise ValueError(
                    f"missing embedding for generator {presentation.names[i]}")
        self.image = GeneratorMap(presentation, self.embedding,
                                  host.presentation.one(), False)
        self._solver = linalg.LinearSolver([])  # holds the images of
        self._monomials: list[Monomial] = []  # these ordered monomials,
        self._solved_to = -1  # all of those up to this weight
        # write-once; a derived spec's reports hold by proof from its source's
        self.morphism_report: Report | None = None  # relations, independence
        self.coideal_report: Report | None = None  # the declared side

    def _require_registered(self) -> None:
        if self.morphism_report is None:
            raise CertificateMissingError(
                f"{self.name}: subalgebra is not registered; "
                "run register_subalgebra first")

    def monomial_image(self, mono: Monomial) -> Element:
        return self.image(self.presentation.monomial(mono))

    def _solver_to(self, h: Element) -> linalg.LinearSolver:
        """The solver, grown to the ordered monomials up to weight(h), for
        h in the host (PresentationMismatchError otherwise)."""
        if h.algebra is not self.host.presentation:
            raise PresentationMismatchError(
                f"{self.name}: element outside the host's presentation")
        weight = h.weight or 0
        while self._solved_to < weight:
            self._solved_to += 1
            for m in self.presentation.monomials_of_weight(self._solved_to):
                self._solver.add(dict(self.monomial_image(m).terms))
                self._monomials.append(m)
        return self._solver

    def embed_generator(self, g) -> Element:
        return self.embedding[self.presentation.index(g)]

    def embed(self, x: Element) -> Element:
        """Image in the host of an element of the subalgebra presentation."""
        self._require_registered()
        return self.image(x)

    def contains(self, h: Element) -> bool:
        """Membership, solved at weight <= weight(h): exact (module doc)."""
        self._require_registered()
        return self._solver_to(h).contains(dict(h.terms))

    def represent(self, h: Element) -> Element | None:
        """The preimage of h, solved at weight <= weight(h), or None."""
        self._require_registered()
        coeffs = self._solver_to(h).solve(dict(h.terms))
        if coeffs is None:
            return None
        return Element(self.presentation,
                       {m: c for m, c in zip(self._monomials, coeffs) if c})

    def signature(self) -> Signature:
        self._require_registered()
        return Signature.from_weights(self.presentation.weights)

    def gk_dimension(self) -> int:
        self._require_registered()
        return self.presentation.ngens

    def __repr__(self):
        return f"SubalgebraSpec({self.name} in {self.host.name}, {self.side})"


def register_subalgebra(host: PresentedHopfAlgebra, name: str,
                        generators, commutators, embedding,
                        side: str) -> SubalgebraSpec:
    """Certify and return an embedded subalgebra.

    Verifies, in order: the subalgebra presentation terminates and is
    confluent; no image outweighs the host's truncation; each declared
    weight is the coradical degree of its image; every relation maps to
    zero; the leading symbols are independent (_symbol_rank); the declared
    coideal side holds.  Each certificate is attached once it passes.
    """
    host._require_filtration()
    pres = Presentation(generators, commutators)
    spec = SubalgebraSpec(host, name, pres, embedding, side)

    presentation_report = pres.certify()
    if pres.certificate is None:
        raise RegistrationError(
            f"{name}: subalgebra presentation is not confluent/terminating: "
            + "; ".join(c.name for c in presentation_report.failures()))

    for i, g in enumerate(pres.names):
        w = pres.weights[i]
        img = spec.embedding[i]
        if not img:
            raise RegistrationError(f"{name}: generator {g} embeds to zero")
        if img.weight > host.filtration.truncation:
            raise RegistrationError(
                f"{name}: image of {g} exceeds the certification cutoff")
        deg = host.coradical_degree(img)
        if deg != w:
            raise RegistrationError(
                f"{name}: reweight {g} to {deg}: declared weight {w} is not "
                "the coradical degree of its image")

    report = _morphism_report(spec, spec.image.relation_defects())
    if not report.passed:
        raise RegistrationError(
            f"{name}: embedding does not respect the relations: "
            + "; ".join(c.name for c in report.failures()))
    rank = _symbol_rank(spec)
    if rank != pres.ngens:
        raise RegistrationError(
            f"{name}: leading symbols of the generator images are not "
            f"certified independent (Jacobian rank {rank} mod 2^61-1 < "
            f"{pres.ngens}); dependent symbols give no ordered basis")
    report.add("leading symbols algebraically independent", True)
    spec.morphism_report = report
    rep = coideal_check(spec)
    if not rep.passed:
        raise RegistrationError(
            f"{name}: declared side '{side}' fails: "
            + "; ".join(f"{c.name} ({c.details})" for c in rep.failures()))
    spec.coideal_report = rep
    return spec


def _morphism_report(spec: SubalgebraSpec, defects) -> Report:
    """The relation lines of spec's morphism report, from (j, i, defect) per
    table entry in sorted order (defect None: zero by proof)."""
    pres = spec.presentation
    report = Report(f"{spec.name}: morphism")
    for j, i, defect in defects:
        report.add(f"[{pres.names[j]},{pres.names[i]}] maps to zero",
                   not defect, f"defect {defect}" if defect else "")
    if pres.table == {}:
        report.add("no relations", True)
    return report


def _symbol_rank(spec: SubalgebraSpec) -> int | None:
    """Rank mod linalg.RANK_PRIME (None: it divides a denominator) of the
    Jacobian of the leading symbols s_i, the weight-w_i parts of the images
    u_i read as polynomials in the host's commuting symbols x_j, at a fixed
    point.  Rank at a point mod p is at most the generic rank over Q, so
    rank ngens proves the s_i algebraically independent (Jacobian criterion
    in characteristic 0; Beecken-Mittmann-Saxena, ICALP 2011).
    """
    hp = spec.host.presentation  # the point: x_j hashed from j (Fibonacci)
    point = [(j + 1) * 0x9E3779B97F4A7C15 % linalg.RANK_PRIME
             for j in range(hp.ngens)]
    rows = []
    for i, w in enumerate(spec.presentation.weights):
        row: dict = {}
        for mono, c in spec.embedding[i].terms.items():
            if hp.monomial_weight(mono) == w:
                # c x^mono at the point; its d/dx_j is e_j value / x_j
                value = c * prod(x ** e for x, e in zip(point, mono))
                for j, e in enumerate(mono):
                    if e:
                        linalg.add_term(row, j, e * value / point[j])
        rows.append(row)
    return linalg._rank_mod_p(rows, len(rows))


def coideal_check(spec: SubalgebraSpec) -> Report:
    """Report on the declared coideal side by membership of coproduct legs;
    the spec keeps the one registration attached.

    For each generator image u: every second-leg cofactor of the host
    coproduct of u must lie in the embedded span (left side), or every
    first-leg cofactor (right side).  'hopf' checks both.  Membership is
    exact once registration has certified the leading symbols.
    """
    spec._require_registered()
    report = Report(f"{spec.name}: coideal ({spec.side})")
    for s, i, line in _coideal_lines(spec):
        t = spec.host.coproduct(spec.embedding[i])
        bad = []
        for mono, cofactor in t.leg_cofactors(1 if s == "left" else 2):
            if not spec.contains(cofactor):
                mono_str = format_monomial(spec.host.presentation, mono)
                pair = (f"{mono_str}@({cofactor})" if s == "left"
                        else f"({cofactor})@{mono_str}")
                bad.append(f"offending term {pair}")
        report.add(line, not bad, "; ".join(bad))
    return report


def _coideal_lines(spec: SubalgebraSpec):
    """(side, generator index, name) of each line of coideal_check."""
    for s in ("left", "right") if spec.side == "hopf" else (spec.side,):
        for i, g in enumerate(spec.presentation.names):
            yield s, i, f"{s} legs of coproduct({g}) lie in the span"


def antipode_image(spec: SubalgebraSpec) -> SubalgebraSpec:
    """The embedded image of the subalgebra under the host antipode,
    certified by proof from T's certificates, none computed anew: S(T)'s
    reports list the lines register_subalgebra would, each passing.

    S is an anti-algebra and anti-coalgebra automorphism (Sweedler, Hopf
    Algebras, 1969, ch. 4), so S(T) is presented by T^op: S(T) lists T's
    generators in reverse, y_k = S(x_(n-1-k)) with x_(n-1-k)'s name and
    weight, and for J > I the entry [y_(n-1-I), y_(n-1-J)] = S([x_J, x_I])
    is T's entry with every exponent vector reversed.  And by proof:

    - T^op is confluent because T is: its ordered monomials are T's read
      backwards, a basis of T^op, and its weights are T's.
    - S([x_J, x_I]) = [S x_I, S x_J], so every relation maps to zero.
    - S keeps the coradical filtration and gr S is an automorphism of
      gr H: the weights hold, and the leading symbols (gr S of T's) stay
      independent, so membership stays exact.
    - Delta S = (S@S) tau Delta, so the declared side flips.
    """
    spec._require_registered()
    host = spec.host
    host._require_antipode()
    pres = spec.presentation
    last = pres.ngens - 1
    op = Presentation(list(zip(pres.names, pres.weights))[::-1], {
        (last - i, last - j): {mono[::-1]: c for mono, c in terms.items()}
        for (j, i), terms in pres.table.items()})
    op.certificate = pres.certificate
    image = SubalgebraSpec(
        host, f"S({spec.name})", op,
        {last - i: host.antipode(spec.embedding[i]) for i in range(pres.ngens)},
        {"left": "right", "right": "left", "hopf": "hopf"}[spec.side])
    image.morphism_report = _morphism_report(
        image, ((j, i, None) for j, i in sorted(op.table)))
    image.morphism_report.add("leading symbols algebraically independent",
                              True)
    image.coideal_report = Report(f"{image.name}: coideal ({image.side})")
    for _, _, line in _coideal_lines(image):
        image.coideal_report.add(line, True)
    return image


def is_hopf_subalgebra(spec: SubalgebraSpec) -> bool:
    """True iff the antipode maps every generator image back into the span."""
    spec._require_registered()
    spec.host._require_antipode()
    return all(spec.contains(spec.host.antipode(spec.embedding[i]))
               for i in range(spec.presentation.ngens))


def _generators_inside(a: SubalgebraSpec, b: SubalgebraSpec) -> bool:
    """Whether b contains every generator image of a."""
    return all(b.contains(a.embedding[i]) for i in range(a.presentation.ngens))


def spans_equal(a: SubalgebraSpec, b: SubalgebraSpec) -> bool:
    """Mutual membership of generator images."""
    a._require_registered()
    b._require_registered()
    return _generators_inside(a, b) and _generators_inside(b, a)


def containment_check(inner: SubalgebraSpec, outer: SubalgebraSpec) -> Report:
    """Check inner <= outer and the strictness dichotomy on generator counts.

    For certified subalgebras a proper containment must come with a
    strictly smaller generator count, and equal counts force equal spans.
    """
    inner._require_registered()
    outer._require_registered()
    if inner.host is not outer.host:
        raise ValueError("containment needs a common host")
    report = Report(f"containment {inner.name} in {outer.name}")
    missing = [g for i, g in enumerate(inner.presentation.names)
               if not outer.contains(inner.embedding[i])]
    contained = not missing
    report.add(f"{inner.name} contained in {outer.name}", contained,
               "" if contained else f"generators outside: {', '.join(missing)}")
    if not contained:
        return report
    equal = _generators_inside(outer, inner)  # inner <= outer holds
    gk_in, gk_out = inner.gk_dimension(), outer.gk_dimension()
    if equal:
        report.add("equality", True, f"spans equal, gk {gk_in} = {gk_out}")
        report.add("gk dichotomy", gk_in == gk_out,
                   f"equal spans need equal counts: {gk_in} vs {gk_out}")
    else:
        report.add("proper containment", True, f"gk {gk_in} < {gk_out}")
        report.add("gk dichotomy", gk_in < gk_out,
                   f"proper containment needs strictly smaller count: "
                   f"{gk_in} vs {gk_out}")
    return report


def full_subalgebra(H: PresentedHopfAlgebra) -> SubalgebraSpec:
    """The host registered as a subalgebra of itself (identity embedding)."""
    pres = H.presentation
    table = {(pres.names[j], pres.names[i]): dict(terms)
             for (j, i), terms in pres.table.items()}
    return register_subalgebra(
        H, H.name, list(zip(pres.names, pres.weights)), table,
        {g: pres.gen(g) for g in pres.names}, "hopf")


def primitive_of_coideal(spec: SubalgebraSpec) -> Element | None:
    """A nonzero primitive inside the embedded span, or None.

    A nontrivial coideal subalgebra of a connected host always meets the
    primitive space nontrivially, so None here signals a certificate bug.
    Primitives have weight 1, and under the symbol certificate T's part of
    weight <= 1 is spanned by 1 and the weight-1 generator images; such an
    image less its counit is primitive (on the certified host F_1 is k
    plus the primitives).
    """
    spec._require_registered()
    ones = spec.presentation.monomials_of_weight(1)
    if not ones:
        return None
    u = spec.monomial_image(ones[0])
    return u - spec.host.scalar(spec.host.counit(u))
