"""Channels: bounded FIFO links between two processes.

The paper's communication is synchronous (rendezvous); it also observes that
"the synchronous communication provides a buffer of size 1" when counting
buffers (Section 7.6) -- a blocked sender effectively holds one element on
the link.  The simulator makes that explicit: a :class:`Channel` has a
``capacity`` (default 1, the paper's counting; 0 gives a pure rendezvous
where a send only completes when a receive takes the value directly).

Channels are mutually independent and point to point, as Section 4
requires: one process sends on a channel and one receives from it, so each
end holds at most one parked waiter.  Each channel records the number of
messages carried and the timestamp bookkeeping used for the virtual-time
(makespan) metric.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.util.errors import RuntimeSimulationError


# slots=True: one Message per carried element; the scheduler also
# constructs these directly where it inlines the push of a Send (bare or
# Par member), so keep the two fields in sync with push().
@dataclass(slots=True)
class Message:
    value: Any
    timestamp: int


class Channel:
    """A point-to-point bounded FIFO."""

    __slots__ = (
        "name",
        "capacity",
        "queue",
        "sender",
        "receiver",
        "messages_carried",
        "max_occupancy",
    )

    def __init__(self, name: str, capacity: int = 1) -> None:
        if capacity < 0:
            raise RuntimeSimulationError(f"negative capacity for channel {name}")
        self.name = name
        self.capacity = capacity
        self.queue: deque[Message] = deque()
        #: the (process, Send slot) pair parked on the sending end, or None
        self.sender: tuple | None = None
        #: the (process, Recv slot) pair parked on the receiving end, or None
        self.receiver: tuple | None = None
        self.messages_carried = 0
        self.max_occupancy = 0

    # ------------------------------------------------------------------
    def has_room(self) -> bool:
        return len(self.queue) < self.capacity

    def push(self, value: Any, timestamp: int) -> None:
        if not self.has_room():
            raise RuntimeSimulationError(f"push into full channel {self.name}")
        self.queue.append(Message(value, timestamp))
        self.messages_carried += 1
        self.max_occupancy = max(self.max_occupancy, len(self.queue))

    def pop(self) -> Message:
        if not self.queue:
            raise RuntimeSimulationError(f"pop from empty channel {self.name}")
        return self.queue.popleft()

    def __repr__(self) -> str:
        return f"Channel({self.name}, {len(self.queue)}/{self.capacity})"
