"""The order of the squared antipode on a host or a registered subalgebra.

Certification needs none of it, so a CLI start loads it only for the
commands that print it (antipode-order, report).
"""

from __future__ import annotations

from .algebra import Element
from .hopf import CertificateMissingError, HopfAlgebraError


class SquaredAntipodeAnalysis:
    """Outcome of the squared-antipode order analysis.

    ``identity`` means the squared antipode fixes every generator of the
    target.  Otherwise ``witness`` is a pair (g, r) of host elements, g a
    generator image, with S^2(g) = g + r, r nonzero and S^2(r) = r, which
    certifies S^(2m)(g) = g + m*r for all m, i.e. infinite order.
    """

    def __init__(self, identity: bool, target: str,
                 witness: tuple[Element, Element] | None):
        self.identity, self.target, self.witness = identity, target, witness

    def describe(self) -> str:
        if self.identity:
            return "identity"
        g, r = self.witness
        return f"infinite; witness S^2({g}) = {g + r}"


def s_squared_analysis(target) -> SquaredAntipodeAnalysis:
    """Decide identity-or-infinite order of the squared antipode on the target.

    The target is a PresentedHopfAlgebra or a registered subalgebra; the
    squared antipode must preserve the target's span (checked, with a
    certificate violation raised otherwise).
    """
    H = target.host
    H._require_antipode()
    witness = None
    for g in target.presentation.names:
        u = target.embed_generator(g)
        s2u = H.s_squared(u)
        if target.represent(s2u) is None:
            raise CertificateMissingError(
                f"S^2({g}) escapes the subalgebra span; "
                "coideal certificate violated")
        r = s2u - u
        if r and witness is None:
            if H.s_squared(r) != r:
                raise HopfAlgebraError(
                    f"S^2 drop of {g} is not itself fixed; filtration "
                    "certificate violated")
            witness = (u, r)
    return SquaredAntipodeAnalysis(witness is None, target.name, witness)
