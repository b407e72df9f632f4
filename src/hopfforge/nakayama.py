"""Characters, winding automorphisms and Nakayama automorphisms.

Characters are inputs here: for an embedded subalgebra the character of
its integral is supplied by the caller (or derived from the adjoint
trace for enveloping-type presentations), never computed homologically.
A character is a GeneratorMap into k, presented with no generators.
A winding applies it to one coproduct leg; chi and Delta are algebra
maps, so the winding is one too.  A target is a host or a registered
subalgebra; both answer the questions of coideal.SubalgebraSpec, and both
wind through one cofactor loop (_wind).  On a host the windings of the
generators fix a GeneratorMap per side; on a subalgebra every winding is
computed anew, its cofactors and image verified to lie in the span.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import Element, GeneratorMap, Presentation, ZERO, as_fraction
from .coideal import SubalgebraSpec, is_hopf_subalgebra
from .hopf import HopfAlgebraError
from .report import Report
from .tensor import TensorElement


class Character(GeneratorMap):
    """Algebra map to the base field, given by its generator values: a
    GeneratorMap into k, presented with no generators."""

    def __init__(self, target, values: dict[int, Fraction]):
        pres, k = target.presentation, Presentation([])
        super().__init__(pres, {i: k.scalar(values.get(i, ZERO))
                                for i in range(pres.ngens)}, k.one(), False)
        self.target, self.values = target, values
        self.report: Report | None = None
        self._windings: dict[str, GeneratorMap] = {}  # host winding per side

    def value(self, g) -> Fraction:
        return self.values.get(self.source.index(g), ZERO)

    def __call__(self, x: Element) -> Fraction:
        return super().__call__(x).constant_term()

    def _require_verified(self) -> None:
        if self.report is None:
            raise HopfAlgebraError(
                "character is not verified on the target's relations")


def character(target, values) -> Character:
    """Build and verify a character from {generator: value}."""
    table = {i: as_fraction(v)
             for i, v in target.presentation.indexed(values).items()}
    chi = Character(target, table)
    verify_character(chi)
    return chi


def counit_character(target) -> Character:
    return character(target, {})


def verify_character(chi: Character) -> Report:
    """A character extends to an algebra map iff it kills every relation.

    The report is attached as chi.report only when it passes."""
    pres = chi.source
    report = Report(f"character on {chi.target.name}")
    for j, i, defect in chi.relation_defects():
        value = -defect.constant_term()  # chi([x_j, x_i]); k is commutative
        report.add(f"kills [{pres.names[j]},{pres.names[i]}]", not value,
                   f"value {value}" if value else "")
    if not pres.table:
        report.add("no relations", True)
    if report.passed:
        chi.report = report
    return report


def compose_with_antipode(chi: Character) -> Character:
    """The convolution inverse of a character: its composition with S."""
    chi._require_verified()
    target = chi.target
    values = {}
    for g in target.presentation.names:
        u = target.embed_generator(g)
        rep = target.represent(target.host.antipode(u))
        if rep is None:
            raise HopfAlgebraError(
                f"antipode image of {g} leaves the subalgebra span")
        values[g] = chi(rep)
    return character(target, values)


def winding(chi: Character, x: Element, side: str) -> Element:
    """Winding endomorphism: the character applied to one coproduct leg.

    side 'left' evaluates the character on first legs, side 'right' on
    second legs.  W = (chi@id)Delta is an algebra map, as chi and Delta
    are, so on a host it is the GeneratorMap of the generator windings,
    built on first use per side (Character._windings); no Delta(x) is
    built.  For a subalgebra target the evaluated cofactors, and the
    final image, must lie in the embedded span; both memberships are
    verified per call and a violation raises.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    chi._require_verified()
    target = chi.target
    if isinstance(target, SubalgebraSpec):
        return _wind(chi, target.host.coproduct(target.embed(x)), side)
    target._require_confluence()
    wind = chi._windings.get(side)
    if wind is None:
        pres = target.presentation
        wind = chi._windings[side] = GeneratorMap(pres, {
            i: _wind(chi, target._coproduct.images[i], side)
            for i in range(pres.ngens)}, pres.one(), False)
    return wind(x)


def _wind(chi: Character, delta: TensorElement, side: str) -> Element:
    """chi on the first (side 'left') or second legs of delta, a host
    coproduct, as an element of chi's target: each cofactor and the sum
    must lie in its span (target.represent, the identity on a host)."""
    target = chi.target
    out: dict = {}
    for mono, cofactor in delta.leg_cofactors(2 if side == "left" else 1):
        rep = target.represent(cofactor)
        if rep is None:
            raise HopfAlgebraError(
                f"winding cofactor {cofactor} is outside the subalgebra "
                "span; the declared coideal side does not support this "
                "winding")
        linalg.add_term(out, mono, chi(rep))
    result = target.represent(Element(target.host.presentation, out))
    if result is None:
        raise HopfAlgebraError(
            "winding image escapes the subalgebra span; stability "
            "verification failed")
    return result


class GeneratorAutomorphism(GeneratorMap):
    """Algebra endomorphism of the target given by its generator images."""

    def __init__(self, target, images: dict):
        pres = target.presentation
        images = {i: img if isinstance(img, Element) else pres.element(img)
                  for i, img in pres.indexed(images).items()}
        for i in range(pres.ngens):
            if i not in images:
                raise ValueError(f"missing image for generator {pres.names[i]}")
        super().__init__(pres, images, pres.one(), False)
        self.target = target

    def respects_relations(self) -> Report:
        names = self.source.names
        report = Report("automorphism respects relations")
        for j, i, defect in self.relation_defects():
            report.add(f"[{names[j]},{names[i]}]", not defect)
        return report

    def describe(self) -> str:
        return ", ".join(
            f"{g} -> {self.images[i]}" for i, g in enumerate(self.source.names))


def _s2_on_target(target, x: Element, inverse: bool = False) -> Element:
    """Squared (or inverse-squared) antipode through the host, back in target."""
    host = target.host
    hx = target.embed(x)
    if inverse:
        hy = host.antipode_inverse(host.antipode_inverse(hx))
    else:
        hy = host.s_squared(hx)
    rep = target.represent(hy)
    if rep is None:
        raise HopfAlgebraError(
            "squared antipode leaves the subalgebra span; certificate "
            "violated")
    return rep


def nakayama_automorphism(target, chi: Character) -> GeneratorAutomorphism:
    """Nakayama automorphism from the declared coideal side.

    Right coideal: compose the left winding of the integral character
    with the squared antipode.  Left coideal: the right winding with the
    inverse-squared antipode.  A two-sided (hopf) target evaluates both
    formulas and insists they agree exactly (the hosts here have no
    nontrivial inner automorphisms).  The result is verified to respect
    the target's relations.
    """
    chi._require_verified()
    if chi.target is not target:
        raise ValueError("character was built for a different target")
    pres = target.presentation
    side = target.side
    images_right = images_left = None
    if side in ("right", "hopf"):
        images_right = {
            i: _s2_on_target(target, winding(chi, pres.gen(i), "left"))
            for i in range(pres.ngens)}
    if side in ("left", "hopf"):
        images_left = {
            i: _s2_on_target(target, winding(chi, pres.gen(i), "right"),
                             inverse=True)
            for i in range(pres.ngens)}
    if side == "hopf" and images_right != images_left:
        raise HopfAlgebraError(
            "the two Nakayama formulas disagree on a two-sided target; "
            "certificates are inconsistent")
    nu = GeneratorAutomorphism(target, images_right or images_left)
    rep = nu.respects_relations()
    if not rep.passed:
        raise HopfAlgebraError(
            "Nakayama images do not respect the target relations: "
            + "; ".join(c.name for c in rep.failures()))
    return nu


def s4_identity_check(spec: SubalgebraSpec, chi: Character) -> Report:
    """Fourth antipode power against the two windings, on a Hopf subalgebra.

    Compares S^4 with the composition of the right winding by the
    character and the left winding by its convolution inverse, generator
    by generator, exactly.
    """
    chi._require_verified()
    if chi.target is not spec:
        raise ValueError("character was built for a different target")
    report = Report(f"{spec.name}: fourth-power identity")
    if not is_hopf_subalgebra(spec):
        report.add("target is a Hopf subalgebra", False,
                   "the identity only applies to Hopf subalgebras")
        return report
    host = spec.host
    minus_chi = compose_with_antipode(chi)
    pres = spec.presentation
    for i, g in enumerate(pres.names):
        lhs = host.s_squared(host.s_squared(spec.embed_generator(i)))
        rhs = spec.embed(winding(minus_chi, winding(chi, pres.gen(i), "right"),
                                 "left"))
        report.add(f"S^4({g}) matches the winding composite", lhs == rhs,
                   "" if lhs == rhs else f"{lhs} vs {rhs}")
    return report


def enveloping_integral_character(target) -> Character:
    """Adjoint-trace character for an enveloping-type presentation.

    Requires every generator weight to be one, every commutator to be
    linear in the generators (Presentation.lie_constants, with no constant
    term), and confluence, i.e. the Jacobi identity (Presentation.certify,
    kept once certified); the character sends each generator to the trace
    of its adjoint action.
    """
    pres = target.presentation
    if any(w != 1 for w in pres.weights):
        raise HopfAlgebraError(
            "adjoint-trace character needs all generators in weight one")
    lie = pres.lie_constants()
    if lie is None or any(e.constant_term() for e in lie.values()):
        raise HopfAlgebraError(
            "adjoint-trace character needs linear commutators")
    conf = pres.certify()
    if pres.certificate is None:
        raise HopfAlgebraError(
            "presentation fails the overlap (Jacobi) check: "
            + "; ".join(c.name for c in conf.failures()))
    units = [tuple(int(e == b) for e in range(pres.ngens))
             for b in range(pres.ngens)]  # x_b as a monomial
    return character(target, {
        g: sum((lie[(a, b)].coefficient(x_b) for b, x_b in enumerate(units)
                if (a, b) in lie), ZERO)
        for a, g in enumerate(pres.names)})
