"""Inverted-Kumaraswamy mixtures: distribution functions, stochastic-order
checks on grids, majorization-based sufficient-condition checkers, a
replayable fixture catalog, and a seeded region scanner.  The ``ikmix``
console script fronts the same operations.  The scalar reference oracles
the tests check it against live outside the package, in tests/oracles.py.

Each module's ``__all__`` is its public API, and the package re-exports
every one of them."""

from .ikdist import *  # noqa: F403
from .mixture import *  # noqa: F403
from .majorization import *  # noqa: F403
from .ordercheck import *  # noqa: F403
from .theorems import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .scan import *  # noqa: F403

__version__ = "0.1.0"
