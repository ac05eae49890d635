"""Additive-state-decomposition dynamic-inversion stabilization toolkit.

Design entry points live in asd_design, runtime controllers in
controller_rt, benchmark plants in plants, the closed-loop integrator in
sim, stability-margin analysis in analysis, and the scenario CLI in cli.
"""

from .analysis import *  # noqa: F401,F403
from .asd_design import *  # noqa: F401,F403
from .controller_rt import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .numlin import *  # noqa: F401,F403
from .plants import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"
