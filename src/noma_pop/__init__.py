"""Pair outage probability of a two-user downlink NOMA pair with imperfect SIC.

Closed-form evaluation, power-split optimization, and seeded Monte Carlo
validation, plus a CLI experiment runner (`noma-pop`).

The public names are each layer module's ``__all__``; the package re-exports
them in layer order.
"""

__version__ = "0.1.0"

from . import analytic, model, montecarlo, optimizer
from .model import *
from .analytic import *
from .optimizer import *
from .montecarlo import *

__all__ = ["__version__", *model.__all__, *analytic.__all__,
           *optimizer.__all__, *montecarlo.__all__]
