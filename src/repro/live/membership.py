"""Shard membership: the live cluster's routing/reconfiguration layer.

This module is the live-facing home of the versioned shard map
(:class:`~repro.core.shard.ShardMap`, re-exported here) and of the
online split coordinator that moves half of an Ingestor's key range to
a new owner **while the cluster serves traffic**.

The protocol is the sim reconfig machinery's Expand → Migrate → Detach
shape (``core/reconfig.py``) recast for Ingestor shards, with the
ordering that makes it safe over real, lossy TCP:

1. **Fence** — install the successor map (epoch E+1) on the *old*
   owner.  From this instant it rejects every op for the moving range
   with a WrongShard redirect, so no new acked write for that range can
   land anywhere but the eventual new owner.  Epoch monotonicity at the
   install handler means a delayed or replayed install can never undo
   this.
2. **Drain** — tell the old owner to flush its memtable (raising the
   durable WAL floor via the PR 5 store), minor-compact, and forward
   *all* of L0/L1 to the Compactors through the normal retained/
   acked/idempotent forward path.  The drain reply snapshots the
   in-flight forward batch ids; the coordinator polls ``shard_status``
   until those exact batches are acked.  At that point every write
   acked before the fence is readable at the Compactors — lower-half
   writes accepted *after* the fence simply keep flowing through the
   same path and do not gate the split.
3. **Activate** — install E+1 on the new owner, carrying the old
   owner's timestamp watermark as ``clock_floor`` so everything the new
   owner stamps is strictly newer than everything it inherited
   (newest-wins stays correct across the handoff).  Only now does any
   node accept ops for the moving range again.
4. **Propagate** — install E+1 on the remaining Ingestors so they
   redirect correctly.  Clients are *not* told: they discover the new
   map lazily when a write bounces (WrongShard → ``shard_map`` fetch →
   re-route), exactly like the redirect-driven routing of classic
   range-sharded stores.

The coordinator is a plain effect-protocol generator driven through any
node with a ``call`` method (a :class:`~repro.core.client.Client`
works), so the *same* code runs under the simulation kernel — where the
verify explorer model-checks it against faults — and over live TCP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.messages import (
    InstallShardMap,
    InstallShardMapReply,
    ShardDrainReply,
    ShardDrainRequest,
)
from repro.core.shard import (  # noqa: F401  (re-exports: the live API surface)
    Shard,
    ShardMap,
    WrongShardError,
    is_wrong_shard,
)
from repro.sim.rpc import RemoteError, RpcTimeout

__all__ = [
    "Shard",
    "ShardMap",
    "SplitStats",
    "WrongShardError",
    "is_wrong_shard",
    "split_ingestor_shard",
]


@dataclass(slots=True)
class SplitStats:
    """Outcome of one online shard split."""

    source: str = ""
    new_owner: str = ""
    epoch: int = 0
    drain_polls: int = 0
    drained_batches: int = 0
    watermark: float = float("-inf")
    installed_on: list[str] = field(default_factory=list)


def _call_retry(admin, target: str, method: str, request, *, budget: int, backoff: float):
    """Bounded-retry RPC through ``admin`` (any node with ``call``)."""
    last_error: Exception | None = None
    delay = backoff
    for attempt in range(budget):
        try:
            reply = yield admin.call(
                target, method, request, timeout=admin.config.request_timeout
            )
            return reply
        except (RpcTimeout, RemoteError) as error:
            last_error = error
            yield admin.kernel.timeout(delay)
            delay = min(delay * 2.0, admin.config.forward_backoff_cap)
    raise last_error


def _install(admin, target: str, shard_map: ShardMap, clock_floor: float, *, budget: int):
    """Install ``shard_map`` on ``target``; idempotent under retries.

    A reply with the target already at (or past) the map's epoch counts
    as success — a retried install whose first ack was lost must not
    fail the split.
    """
    reply = yield from _call_retry(
        admin,
        target,
        "install_shard_map",
        InstallShardMap(shard_map, clock_floor),
        budget=budget,
        backoff=admin.config.forward_backoff_base,
    )
    assert isinstance(reply, InstallShardMapReply)
    if reply.epoch < shard_map.epoch:
        raise RuntimeError(
            f"{target} rejected shard map epoch {shard_map.epoch} "
            f"(holds epoch {reply.epoch})"
        )
    return reply


def split_ingestor_shard(
    admin,
    current: ShardMap,
    boundary,
    new_owner: str,
    *,
    others: tuple[str, ...] = (),
    history=None,
    poll_interval: float = 0.05,
    budget: int = 60,
):
    """Online shard split: fence → drain → activate → propagate.

    Args:
        admin: Any RPC-capable node (e.g. a history-less Client) whose
            kernel this generator runs under — sim or live.
        current: The map the coordinator believes is installed; its
            split successor (epoch + 1) is what gets rolled out.
        boundary: Key at which to cut; the range ``[boundary, next)``
            moves from its current owner to ``new_owner``.
        new_owner: Name of the (already listening) Ingestor that takes
            over the upper half.  The live harness spawns the process
            (``LocalCluster.add_node``) before the coordinator runs; in
            the simulator spare Ingestors are built with the cluster.
        others: Remaining Ingestors to eagerly hand the new map
            (clients would teach them lazily anyway via redirects).
        history: Optional shared History; phase marks interleave with
            client ops in verification timelines.
        poll_interval: Drain poll spacing (seconds, kernel time).
        budget: Retry/poll budget per step.

    Returns:
        ``(new_map, SplitStats)``.

    Zero acked-write loss argument: a write acked before the fence is
    durable at the source (WAL/L0/L1/in-flight); the drain forwards all
    of it to the Compactors and completes only when those batches are
    acked; the new owner serves reads through the normal
    local-then-Compactor path, so everything drained is visible before
    the first post-activation op.  A write arriving between fence and
    activation is never acked (WrongShard), so nothing can be lost.
    """
    target_map = current.split(boundary, new_owner)
    moving = target_map.shard_for(boundary)
    source = current.owner_of(boundary)
    stats = SplitStats(source=source, new_owner=new_owner, epoch=target_map.epoch)

    def _mark(label: str, detail: str) -> None:
        if history is not None:
            history.mark(admin.kernel.now, label, detail)

    # 1. Fence the old owner: from here on, the moving range bounces.
    yield from _install(admin, source, target_map, float("-inf"), budget=budget)
    stats.installed_on.append(source)
    _mark("shard.fence", f"{source} fenced at epoch {target_map.epoch}")

    # 2. Drain: everything acked pre-fence goes down to the Compactors.
    drain = yield from _call_retry(
        admin, source, "shard_drain", ShardDrainRequest(),
        budget=budget, backoff=admin.config.forward_backoff_base,
    )
    assert isinstance(drain, ShardDrainReply)
    fence_set = set(drain.pending)
    stats.drained_batches = len(fence_set)
    watermark = drain.watermark
    polls = 0
    while fence_set:
        polls += 1
        if polls > budget:
            raise RuntimeError(
                f"shard drain on {source} did not settle: {sorted(fence_set)} unacked"
            )
        yield admin.kernel.timeout(poll_interval)
        status = yield from _call_retry(
            admin, source, "shard_status", ShardDrainRequest(),
            budget=budget, backoff=admin.config.forward_backoff_base,
        )
        watermark = max(watermark, status.watermark)
        fence_set &= set(status.pending)
    stats.drain_polls = polls
    stats.watermark = watermark
    _mark("shard.drain", f"{source} drained {stats.drained_batches} batches")

    # 3. Activate the new owner, clock floored past the source's last
    #    stamp so inherited data can never shadow fresh writes.
    yield from _install(admin, new_owner, target_map, watermark, budget=budget)
    stats.installed_on.append(new_owner)
    _mark(
        "shard.activate",
        f"{new_owner} owns [{moving.lower!r}, …) term {moving.term}",
    )

    # 4. Propagate to the remaining Ingestors (best effort beyond the
    #    two protocol-critical installs; stragglers learn via clients'
    #    redirect-driven refreshes bouncing off them).
    for name in others:
        if name in (source, new_owner):
            continue
        yield from _install(admin, name, target_map, float("-inf"), budget=budget)
        stats.installed_on.append(name)
    _mark("shard.done", f"epoch {target_map.epoch} propagated")
    return target_map, stats
