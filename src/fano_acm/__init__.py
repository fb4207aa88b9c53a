"""Exact Chern-class calculus and ACM-bundle invariant classification on the
index-2 Fano threefolds V_3, V_4, V_5.

The package re-exports the ``__all__`` of acm, catalog, chow and rank2; the
command line (cli) is imported only when it runs.
"""

from .acm import *  # noqa: F403
from .catalog import *  # noqa: F403
from .chow import *  # noqa: F403
from .rank2 import *  # noqa: F403

__version__ = "0.1.0"
