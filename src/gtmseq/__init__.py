"""Generalized Thue-Morse sequences.

Construction by digit counting and by word substitution, exact
periodicity classification, stammering-witness certificates, k-kernel
automata, and arbitrary-precision evaluation of the associated series
and continued fractions.
"""

__version__ = "0.1.0"

from . import analytic, automaton, errors, expansion, kappa, periodicity, specfile, stammer
from .analytic import *
from .automaton import *
from .errors import *
from .expansion import *
from .kappa import *
from .periodicity import *
from .specfile import *
from .stammer import *

__all__ = ["__version__"] + [
    name
    for module in (analytic, automaton, errors, expansion, kappa, periodicity, specfile, stammer)
    for name in module.__all__
]
