"""Numerical verification of two-sided operator bounds for unital positive maps.

Core pieces: a deterministic spectral calculus for dense real symmetric
matrices, a catalog of scalar functions with interval constants, unital
positive map variants, chord-based two-sided Jensen bounds with
Kantorovich-type sandwiches, operator perspectives and entropies, and a
seeded fuzz harness with a CLI front end.
"""

from .bounds import *
from .errors import *
from .functions import *
from .maps import *
from .perspectives import *
from .rng import *
from .spectral import *
from .verifier import *

__version__ = "0.1.0"
