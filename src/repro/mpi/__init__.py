"""``repro.mpi`` — an MPI-1 subset over the simulated network.

Mirrors the layering of MPICH (paper Fig. 1): collectives dispatch onto
either the point-to-point engine (baseline) or the multicast channel (the
paper's contribution, in :mod:`repro.core`).  The surface is what the
benchmarks, sweeps and fuzzer call: the seven collectives ``bcast``,
``barrier``, ``reduce``, ``allreduce``, ``gather``, ``scatter`` and
``allgather``; user point-to-point as ``isend`` / ``irecv`` (each
completed by ``Request.wait``) and ``sendrecv``; the reductions
:data:`SUM` and :data:`MAX`, and :class:`Op` for any other.  There is
one lowercase call per MPI operation; see
:mod:`repro.mpi.communicator`.
"""

from . import collective  # noqa: F401  (registers p2p implementations)
from .communicator import Communicator, UNDEFINED
from .datatypes import payload_bytes
from .ops import MAX, SUM, Op
from .p2p import EAGER_THRESHOLD, MPI_PORT, MpiEndpoint
from .status import ANY_SOURCE, ANY_TAG, Request, Status
from .world import MpiWorld

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "Communicator", "EAGER_THRESHOLD", "MAX",
    "MPI_PORT", "MpiEndpoint", "MpiWorld", "Op", "Request", "SUM",
    "Status", "UNDEFINED", "payload_bytes",
]
