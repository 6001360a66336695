"""The wide-area network: ordered, reliable delivery with WAN latency.

CooLSM "use[s] a communication framework that guarantees the ordered
delivery of messages while handling network message drops, delays, and
unordered messages. (We use Google RPC which uses a variant of the TCP
protocol.)" — Section III-H.  The simulator models exactly that
contract:

* per-(src, dst) channels deliver FIFO — a later message never
  overtakes an earlier one on the same channel (TCP ordering);
* a *dropped* message is not lost: it is retransmitted and appears as
  extra delay (one retransmission timeout), as it would under TCP;
* a *partition* between two machines holds messages back until healed.

Faults are injected through :class:`FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .kernel import Kernel
from .machine import Machine
from .regions import LatencyModel
from .resources import Store
from .rng import RngRegistry


@dataclass(slots=True)
class FaultPlan:
    """Network fault injection knobs.

    Attributes:
        drop_probability: Chance each message is dropped once and
            retransmitted (adds ``retransmit_timeout`` to its delay).
        retransmit_timeout: Extra delay per drop (TCP RTO model).
        partitions: Set of frozenset({machine_a, machine_b}) pairs whose
            traffic is held until the pair is removed.
    """

    drop_probability: float = 0.0
    retransmit_timeout: float = 0.2
    partitions: set[frozenset[str]] = field(default_factory=set)

    def partition(self, a: str, b: str) -> None:
        self.partitions.add(frozenset({a, b}))

    def heal(self, a: str, b: str) -> None:
        self.partitions.discard(frozenset({a, b}))

    def is_partitioned(self, a: str, b: str) -> bool:
        return frozenset({a, b}) in self.partitions


@dataclass(slots=True)
class NetworkStats:
    """Counters for traffic accounting."""

    messages_sent: int = 0
    bytes_sent: int = 0
    drops: int = 0


class Network:
    """Connects machines; delivers messages into named inboxes.

    Nodes register an inbox (:class:`~repro.sim.resources.Store`) under
    their name with :meth:`register`; :meth:`send` schedules delivery of
    ``(sender_name, message)`` tuples after the modelled delay.
    """

    def __init__(
        self,
        kernel: Kernel,
        rng: RngRegistry,
        latency_model: LatencyModel | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.kernel = kernel
        self.latency = latency_model or LatencyModel()
        self.faults = faults or FaultPlan()
        self.stats = NetworkStats()
        self._rng = rng.stream("network.jitter")
        self._drop_rng = rng.stream("network.drops")
        self._inboxes: dict[str, Store] = {}
        self._machines: dict[str, Machine] = {}
        # FIFO enforcement: earliest time the next message on a channel
        # may be delivered.
        self._channel_clear_at: dict[tuple[str, str], float] = {}
        self._held: dict[frozenset[str], list[tuple[str, str, Any, int]]] = {}

    def register(self, name: str, machine: Machine) -> Store:
        """Create and return the inbox for node ``name`` on ``machine``."""
        if name in self._inboxes:
            raise ValueError(f"node name already registered: {name}")
        inbox = Store(self.kernel)
        self._inboxes[name] = inbox
        self._machines[name] = machine
        return inbox

    def machine_of(self, name: str) -> Machine:
        return self._machines[name]

    def send(self, src: str, dst: str, message: Any, size_bytes: int = 256) -> None:
        """Send ``message`` from node ``src`` to node ``dst``.

        Delivery is asynchronous; the message appears in ``dst``'s inbox
        as ``(src, message)`` after the modelled delay.  Messages between
        colocated nodes (same machine) use loopback latency.
        """
        src_machine = self._machines[src]
        dst_machine = self._machines[dst]
        if self.faults.is_partitioned(src_machine.name, dst_machine.name):
            key = frozenset({src_machine.name, dst_machine.name})
            self._held.setdefault(key, []).append((src, dst, message, size_bytes))
            return
        self._deliver(src, dst, message, size_bytes)

    def _deliver(self, src: str, dst: str, message: Any, size_bytes: int) -> None:
        src_machine = self._machines[src]
        dst_machine = self._machines[dst]
        same_machine = src_machine is dst_machine
        delay = self.latency.delay(
            src_machine.region,
            dst_machine.region,
            size_bytes,
            self._rng.random(),
            same_machine=same_machine,
        )
        # Loopback (nodes placed on one machine) never traverses a lossy
        # link: TCP over loopback does not drop, so the monolithic
        # baseline's Ingestor-Compactor hop pays no retransmit delays.
        if not same_machine and self._drop_rng.random() < self.faults.drop_probability:
            self.stats.drops += 1
            delay += self.faults.retransmit_timeout
        now = self.kernel.now
        channel = (src, dst)
        deliver_at = max(now + delay, self._channel_clear_at.get(channel, 0.0))
        self._channel_clear_at[channel] = deliver_at
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size_bytes
        inbox = self._inboxes[dst]
        self.kernel._schedule_at(deliver_at, lambda: inbox.put((src, message)))

    def heal_partition(self, machine_a: str, machine_b: str) -> None:
        """Heal a partition and flush the traffic it held back."""
        self.faults.heal(machine_a, machine_b)
        key = frozenset({machine_a, machine_b})
        for src, dst, message, size_bytes in self._held.pop(key, []):
            self._deliver(src, dst, message, size_bytes)
