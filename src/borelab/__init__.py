"""Borel-stable abelian subalgebra combinatorics via affine root systems."""

from .cartan import AffineDiagram, load_diagram
from .grading import GradedContext, analyze, catalog_involutions, context_for, involution
from .poset import MinusculePoset, enumerate_poset, maxima_parametrization

__all__ = [
    "AffineDiagram",
    "GradedContext",
    "MinusculePoset",
    "analyze",
    "catalog_involutions",
    "context_for",
    "enumerate_poset",
    "involution",
    "load_diagram",
    "maxima_parametrization",
    "verify_all",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    """`verify_all` imports the checks, `borelab.minuscule`, on first use."""
    if name == "verify_all":
        from .minuscule import verify_all
        return verify_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
