"""Grouped mixture of Gaussian linear regressions.

Observations come in groups that each share a single latent cluster; every
cluster carries its own regression coefficients and noise variance.  The
package estimates the mixture by EM over sufficient statistics, predicts
new observations through per-group posteriors, generates synthetic
benchmark data with controlled cluster separation, and selects the number
of clusters by repeated hold-out validation.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them, sorted, plus ``__version__`` (``io`` and ``cli`` stay unloaded).
"""

from . import benchmark, data, em, errors, metrics, predict, select, simulate
from .benchmark import *
from .data import *
from .em import *
from .errors import *
from .metrics import *
from .predict import *
from .select import *
from .simulate import *

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (benchmark, data, em, errors, metrics, predict, select, simulate)
    for name in module.__all__
) + ["__version__"]
