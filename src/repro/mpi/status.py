"""MPI Status and Request objects."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..simnet.kernel import Event

__all__ = ["Status", "Request", "ANY_SOURCE", "ANY_TAG"]

#: wildcard source rank for receives
ANY_SOURCE = -1
#: wildcard tag for receives
ANY_TAG = -1


@dataclass
class Status:
    """Receive metadata: who sent, with what tag, how many bytes."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    count: int = 0


@dataclass
class Request:
    """Handle on an in-flight nonblocking operation.

    ``wait`` is its one completion call, a generator (``data = yield
    from req.wait()``) that fills :attr:`status` from the event's value
    ``(data, Status)``; several requests are waited on one by one.
    """

    event: Event
    status: Status = field(default_factory=Status)

    def wait(self) -> Generator:
        data, status = yield self.event
        self.status.__dict__.update(status.__dict__)
        return data
