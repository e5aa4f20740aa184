"""MPI Status and Request objects, and ``waitall``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..simnet.kernel import Event

__all__ = ["Status", "Request", "ANY_SOURCE", "ANY_TAG", "waitall"]

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

    ``wait`` is a generator (``data = yield from req.wait()``); ``test``
    is an instantaneous poll.  The event's value is ``(data, Status)``.
    """

    event: Event
    kind: str = "recv"                #: "send" | "recv" (informational)
    status: Status = field(default_factory=Status)

    def wait(self) -> Generator:
        data, status = yield self.event
        self.status.__dict__.update(status.__dict__)
        return data

    def test(self) -> tuple[bool, Optional[Any]]:
        if not self.event.triggered:
            return False, None
        data, status = self.event.value
        self.status.__dict__.update(status.__dict__)
        return True, data

    @property
    def complete(self) -> bool:
        return self.event.triggered


def waitall(reqs: list[Request]) -> Generator:
    """``results = yield from waitall(reqs)`` — wait on many requests."""
    results = []
    for req in reqs:
        results.append((yield from req.wait()))
    return results

