"""Exact Kreck-Stolz invariants for five families of 2-connected 7-manifolds.

The package computes, in exact rational arithmetic, the classifying
invariants (s1, s2, s3 in Q/Z, the first Pontryagin class and the linking
form modulo |H^4|) for Eschenburg biquotients and for four families of
bundle total spaces, and decides diffeomorphism, homeomorphism and
homotopy equivalence from them.
"""

from __future__ import annotations

from . import atlas_search, bundle_families, classification, errors, eschenburg, exact_arith, profiles
from .atlas_search import *
from .bundle_families import *
from .classification import *
from .errors import *
from .eschenburg import *
from .exact_arith import *
from .profiles import *

__version__ = "0.1.0"

# Each library module declares its public names in its own __all__; the
# package exports their union, sorted, so a name listed twice stays visible.
__all__ = sorted(
    [
        *atlas_search.__all__,
        *bundle_families.__all__,
        *classification.__all__,
        *errors.__all__,
        *eschenburg.__all__,
        *exact_arith.__all__,
        *profiles.__all__,
    ]
)
