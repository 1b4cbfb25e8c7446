"""means-lab: bivariate special means, the sharp constants of their weighted
double inequalities, and a numerical certification harness.

The public API is each module's ``__all__``; no two of them share a name."""

from .exceptions import DomainError, EvaluationError, replace
from .means import *
from .ratios import *
from .series import *
from .certify import *

__version__ = "0.1.0"
