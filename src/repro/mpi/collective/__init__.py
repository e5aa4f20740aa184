"""Collective-operation implementations and the dispatch registry.

Every collective is a plain generator function taking the communicator as
its first argument; :class:`~repro.mpi.communicator.Communicator` looks up
the active implementation by name.  The MPICH-style algorithms (built on
point-to-point, as the paper's baseline) register themselves here; the
multicast implementations in :mod:`repro.core` register under
``mcast-*`` names.
"""

from .registry import REGISTRY, get_impl, register, DEFAULTS

# Importing the modules registers the p2p baselines, each first in its
# op's row, and then the topology-aware hierarchical family, which lives
# beside the policy layer it cooperates with.
from . import tree_p2p, barrier_p2p, hier  # noqa: F401

__all__ = ["REGISTRY", "get_impl", "register", "DEFAULTS"]
