"""``repro.mpi`` — an MPI-1 subset over the simulated network.

Mirrors the layering of MPICH (paper Fig. 1): collectives dispatch onto
either the point-to-point engine (baseline) or the multicast channel (the
paper's contribution, in :mod:`repro.core`).  There is one lowercase
call per MPI operation; see :mod:`repro.mpi.communicator`.
"""

from . import collective  # noqa: F401  (registers p2p implementations)
from .communicator import Communicator, UNDEFINED
from .datatypes import payload_bytes
from .ops import (BAND, BOR, LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD, SUM,
                  Op)
from .p2p import EAGER_THRESHOLD, MPI_PORT, MpiEndpoint
from .status import ANY_SOURCE, ANY_TAG, Request, Status, waitall
from .world import MpiWorld

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "BAND", "BOR", "Communicator",
    "EAGER_THRESHOLD", "LAND", "LOR", "MAX", "MAXLOC", "MIN",
    "MINLOC", "MPI_PORT", "MpiEndpoint", "MpiWorld", "Op", "PROD",
    "Request", "SUM", "Status", "UNDEFINED", "payload_bytes", "waitall",
]
