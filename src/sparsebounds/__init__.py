"""CCRB and HCRB lower bounds for sparse estimation when the sensing matrix
is noisy, with reference estimators, a Monte Carlo harness and a command
line.  The public names are those in each layer's ``__all__``."""

from . import ccrb, errors, estimators, fisher, hcrb, model, montecarlo
from .ccrb import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .fisher import *  # noqa: F403
from .hcrb import *  # noqa: F403
from .model import *  # noqa: F403
from .montecarlo import *  # noqa: F403

__all__ = [
    *errors.__all__, *model.__all__, *fisher.__all__, *ccrb.__all__,
    *hcrb.__all__, *estimators.__all__, *montecarlo.__all__,
]

__version__ = "0.1.0"
