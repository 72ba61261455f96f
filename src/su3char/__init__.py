"""Numerical SU(3) character evaluation and bound certification.

Three independent evaluation routes (Weyl quotient, wall-descent regrouping,
Gelfand-Tsetlin pattern sum) behind one stable dispatcher, the six-term
pointwise envelope with ratio sweeps, Haar Lp norms with the predicted
exponent formulas, and a CLI for the certification runs.
"""

from .cartan import *
from .character import *
from .bounds import *
from .quadrature import *
from .lpnorms import *
from .reports import *

__version__ = "0.1.0"
