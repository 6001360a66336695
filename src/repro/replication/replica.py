"""State-machine replication of Compactors onto Reader-like replicas.

Section III-H: "a Compactor would broadcast its changes to 2f Readers
(making the total with the Compactor be 2f+1 nodes) using a paxos
process replicating an ordered log of operation steps."

:class:`ReplicatedCompactor` is a Compactor that appends every forward
it receives to a replicated log: it ships the log record to its 2f
replicas and waits for f acknowledgements (a majority of 2f+1 counting
itself) *before* acking the Ingestor.  :class:`CompactorReplica`
durably appends the record, acks immediately, and applies the merge
asynchronously — so a replica always holds enough log to reconstruct
the leader's state, while the leader's ack path only pays one
round-trip plus a log append.

A replica is a full Compactor object (same read path, same merge
logic); promotion after a leader failure is just activation — see
:mod:`repro.replication.failover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.sim.clock import LooseClock
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine
from repro.sim.network import Network
from repro.sim.rpc import RemoteError, RpcTimeout

from repro.core.compactor import Compactor
from repro.core.config import CooLSMConfig
from repro.core.messages import ForwardRequest

from .paxos import PaxosMixin

#: Fixed service time for appending one record to the replication log.
LOG_APPEND_COST = 20e-6


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One replicated operation step."""

    index: int
    request: ForwardRequest
    leader: str


@dataclass(slots=True)
class ReplicationStats:
    """Counters for the replication layer."""

    records_shipped: int = 0
    acks_waited: int = 0
    records_applied: int = 0
    log_length: int = 0


class ReplicatedCompactor(Compactor, PaxosMixin):
    """A Compactor whose operation log is replicated to 2f replicas."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        machine: Machine,
        name: str,
        config: CooLSMConfig,
        clock: LooseClock,
        replicas: Iterable[str],
        tolerated_failures: int = 1,
        backups: Iterable[str] = (),
        multi_ingestor: bool = False,
    ) -> None:
        super().__init__(
            kernel, network, machine, name, config, clock, backups, multi_ingestor
        )
        self.init_paxos()
        self.replicas = list(replicas)
        self.f = tolerated_failures
        self.replication = ReplicationStats()
        self._log_index = 0
        self.term = 0
        self.fenced = False
        self.on("ping", self._handle_ping)

    def _handle_ping(self, src: str, payload: Any):
        return "pong"
        yield  # pragma: no cover - generator form required by RPC layer

    def fence(self, term: int) -> None:
        """Depose this leader: a newer term exists.

        A fenced leader rejects every subsequent forward, so an old
        leader resurrected after its group elected a successor cannot
        accept writes the successor never sees (split-brain).  The
        rejection surfaces at the Ingestor as a RemoteError, and its
        failover loop re-resolves the partition to the new leader.
        """
        self.fenced = True
        self.term = max(self.term, term)

    def _handle_forward(self, src: str, request: ForwardRequest):
        if self.fenced:
            raise RuntimeError(
                f"{self.name} was deposed at term {self.term}; "
                "forward to the current leader"
            )
        reply = yield from super()._handle_forward(src, request)
        return reply

    def _process_forward(self, src: str, request: ForwardRequest):
        """Replicate the operation to a majority, then merge and ack.

        Runs under the base class's idempotency gate, so a retried
        batch is answered from the completed-batch table instead of
        being re-replicated and re-merged.
        """
        self._log_index += 1
        record = LogRecord(self._log_index, request, self.name)
        yield from self.compute(LOG_APPEND_COST)
        if self.replicas:
            yield from self._replicate(record)
        reply = yield from super()._process_forward(src, request)
        return reply

    def _replicate(self, record: LogRecord):
        """Ship ``record`` and wait for f replica acks (majority of 2f+1)."""
        entries = sum(len(t) for t in record.request.tables)
        size = self.config.costs.tables_size_bytes(entries)
        needed = min(self.f, len(self.replicas))
        calls = [
            self.kernel.spawn(self._ship(replica, record, size))
            for replica in self.replicas
        ]
        self.replication.records_shipped += 1
        # Wait until `needed` acks arrive (not all: stragglers tolerated).
        acked = 0
        pending = list(calls)
        while acked < needed and pending:
            index, result = yield self.kernel.any_of(pending)
            done = pending.pop(index)
            del done
            if result:
                acked += 1
        self.replication.acks_waited += acked

    def _ship(self, replica: str, record: LogRecord, size: int):
        try:
            yield self.call(
                replica, "replicate", record, size_bytes=size, timeout=2.0, retries=1
            )
            return True
        except (RpcTimeout, RemoteError):
            return False


class CompactorReplica(Compactor, PaxosMixin):
    """A passive Compactor replica: logs synchronously, applies
    asynchronously, and can be promoted to leader."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        machine: Machine,
        name: str,
        config: CooLSMConfig,
        clock: LooseClock,
        backups: Iterable[str] = (),
        multi_ingestor: bool = False,
    ) -> None:
        super().__init__(
            kernel, network, machine, name, config, clock, backups, multi_ingestor
        )
        self.init_paxos()
        self.active = False
        self.term = 0
        self.replication = ReplicationStats()
        self.log: list[LogRecord] = []
        self._applied_index = 0
        self._apply_wakeup = kernel.event()
        self.on("replicate", self._handle_replicate)
        self.on("ping", self._handle_ping)
        kernel.spawn(self._apply_loop(), f"{name}.apply")

    def _handle_ping(self, src: str, payload: Any):
        return "pong"
        yield  # pragma: no cover

    def _handle_replicate(self, src: str, record: LogRecord):
        """Append to the log and ack; the merge happens asynchronously."""
        yield from self.compute(LOG_APPEND_COST)
        self.log.append(record)
        self.replication.log_length = len(self.log)
        if not self._apply_wakeup.triggered:
            self._apply_wakeup.succeed()
        return record.index

    def _apply_loop(self):
        """Apply logged operations in order, in the background."""
        while True:
            if self._applied_index >= len(self.log):
                self._apply_wakeup = self.kernel.event()
                yield self._apply_wakeup
                continue
            record = self.log[self._applied_index]
            self._applied_index += 1
            merged = yield from self._absorb(list(record.request.tables))
            # Remember the batch so that, after a promotion, an Ingestor
            # retrying it (its ack from the old leader was lost) gets a
            # deduplicated ack instead of a double merge.
            self.record_applied_batch(
                record.request.ingestor, record.request.batch_id, merged
            )
            self.replication.records_applied += 1

    @property
    def applied_index(self) -> int:
        return self._applied_index

    @property
    def caught_up(self) -> bool:
        return self._applied_index >= len(self.log)

    def promote(self, term: int = 0) -> None:
        """Assume the Compactor role (called after winning election)."""
        self.active = True
        self.term = max(self.term, term)

    def demote(self, term: int = 0) -> None:
        """Step down: a later election chose someone else.  A demoted
        replica rejects forwards again (split-brain fencing)."""
        self.active = False
        self.term = max(self.term, term)

    def _handle_forward(self, src: str, request: ForwardRequest):
        """Serve forwards only once promoted; reject otherwise so the
        Ingestor's retry loop moves on."""
        if not self.active:
            raise RuntimeError(f"{self.name} is a passive replica")
        reply = yield from super()._handle_forward(src, request)
        return reply
