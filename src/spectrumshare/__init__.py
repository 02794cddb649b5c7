"""Distributed spectrum sharing on interference graphs.

Simulation library for multi-channel random access where users pick channel
sets and attempt probabilities over a shared collision medium. Covers
best-response play for per-user rate maximization, noisy best response with
cooling for proportionally fair allocations, slot-level Monte Carlo,
exhaustive oracles, and a reproducible experiment harness.
"""

__version__ = "0.1.0"

# Each module's __all__ is its only list of public names; the root re-exports
# them all, so a name made public in its module is public here too.
from . import drm, dynamics, errors, fairness, harness, network, oracle
from .errors import *
from .network import *
from .drm import *
from .fairness import *
from .dynamics import *
from .oracle import *
from .harness import *

__all__ = ["__version__"] + [
    name
    for module in (errors, network, drm, fairness, dynamics, oracle, harness)
    for name in module.__all__
]
