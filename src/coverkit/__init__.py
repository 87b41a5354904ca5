"""coverkit: finite cover systems, their spectra and their duality.

The toolkit constructs relations on the finite subsets of a small ground
set, classifies them against the entailment/cover axiom hierarchy,
builds the space of tight subsets and the frame of quasi-ideals, and
verifies the categorical duality with finite stably locally compact
spaces at exhaustively checkable scale.
"""

__version__ = "0.1.0"

from .kernel import (
    CapExceededError,
    Family,
    FinSubset,
    GroundMismatchError,
    GroundSet,
    TheoremViolationError,
    diagonal,
    selections,
    supersets,
)
from .relations import CoverSystem, Relation
from .composition import cut_compose
from .axioms import Classification, classify, derive_vdash

__all__ = [
    "CapExceededError",
    "Classification",
    "CoverSystem",
    "Family",
    "FinSubset",
    "GroundMismatchError",
    "GroundSet",
    "Relation",
    "TheoremViolationError",
    "classify",
    "cut_compose",
    "derive_vdash",
    "diagonal",
    "selections",
    "supersets",
    "__version__",
]
