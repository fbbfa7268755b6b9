"""Stratified Monte Carlo pricing along chosen projection directions.

The package prices path-dependent options by stratifying the Gaussian
driver along one or two directions (gradient-based, expansion-based or
eigenvector-based), allocating draws across strata proportionally to
their probabilities or to probability times estimated std, and comparing
against plain Monte Carlo and Latin hypercube baselines.

The package exports the names in each library module's __all__.
"""
from .errors import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .stratify import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .payoffs import *  # noqa: F401,F403
from .directions import *  # noqa: F401,F403
from .presets import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403

__version__ = "0.1.0"
