"""Exact symbolic computation with connected Hopf algebras presented by
weighted generators and commutator relations."""

from .algebra import (Element, Presentation, PresentationMismatchError,
                      check_confluence, check_termination_weights, commutator)
from .grading import (FiltrationCertificate, FiltrationError, PowerSeries,
                      Signature, certify, certify_filtration, hilbert_divides,
                      hilbert_series, signature)
from .hopf import (AntipodeSolveError, CertificateMissingError,
                   HopfAlgebraError, PresentedHopfAlgebra,
                   SquaredAntipodeAnalysis, s_squared_analysis,
                   solve_antipode, verify_bialgebra, verify_hopf)
from .lantern import GradedLieAlgebra, lantern, mobius, numerology_report
from .report import Check, Report
from .tensor import TensorElement, contract, tensor_multiply, tensor_product

__version__ = "0.1.0"

# the names of coideal and nakayama load on first use (PEP 562)
_LAZY = {
    "coideal": ("RegistrationError", "SubalgebraSpec", "antipode_image",
                "coideal_check", "containment_check", "full_subalgebra",
                "is_hopf_subalgebra", "primitive_of_coideal",
                "register_subalgebra", "spans_equal"),
    "nakayama": ("Character", "GeneratorAutomorphism", "character",
                 "compose_with_antipode", "counit_character",
                 "enveloping_integral_character", "nakayama_automorphism",
                 "s4_identity_check", "verify_character", "winding"),
}

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [*_LAZY] + [n for names in _LAZY.values() for n in names])


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module
            loaded = import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
