"""CooLSM deployment configuration.

One :class:`CooLSMConfig` captures the structural parameters shared by
every node of a deployment: level thresholds, sstable and batch sizes,
the time-synchronisation bound δ, and the in-flight stall limit.  The
class methods reproduce the paper's two experimental setups (100K and 300K
key ranges — Section IV: "For the 100K key-range, L0 and L1 have 10
sstables, L2 has 100 sstables and L3 has 1000 sstables ...").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.lsm.errors import InvalidConfigError

from .costs import DEFAULT_COSTS, CostModel


@dataclass(frozen=True, slots=True)
class CooLSMConfig:
    """Structural and protocol parameters of a CooLSM deployment.

    Attributes:
        key_range: Number of distinct integer keys in the workload's
            domain (drives level sizing presets).
        memtable_entries: Writes buffered at an Ingestor before the
            batch is sorted and added as one L0 table.
        sstable_entries: Entries per sstable in L1 and above.
        l0_threshold / l1_threshold: Ingestor level thresholds, in
            tables; exceeding L0 triggers minor compaction, exceeding L1
            forwards the extra sstables to Compactors.
        l2_threshold / l3_threshold: Compactor level thresholds, in
            tables; exceeding L2 triggers compaction into L3.
        delta: Loose time-synchronisation error bound δ, seconds
            (Section III-E).  Ordering needs a 2δ gap.
        gc_slack: How far (seconds) behind its local clock a Compactor
            sets the version-retention horizon in multi-Ingestor mode;
            must exceed 2δ plus the maximum read lifetime so no
            in-flight read loses the version it needs.
        max_inflight_tables: Ingestor flow control — when more forwarded
            sstables than this await Compactor acks, the *next* minor
            compaction (and therefore the write that triggered it)
            stalls.  A stall threshold, not a hard cap: the burst that
            crosses it completes, so in-flight count may briefly
            overshoot by one forwarding batch.  This is the Ingestor's
            only write backpressure, and what makes write latency
            depend on the number of Compactors (Figure 3).
        ack_timeout: Ingestor->Compactor RPC timeout, seconds.
        forward_backoff_base: First retry delay after a failed forward,
            seconds; doubles per consecutive failure (with jitter).
        forward_backoff_cap: Upper bound on the forward retry delay.
        forward_retry_budget: Failed attempts against one Compactor
            before the Ingestor rotates to the partition's next member
            (or the promoted replacement) and resets its backoff.
        client_timeout: Default timeout for every client RPC, seconds.
            ``None`` derives it as ``2 * ack_timeout`` (see
            :attr:`request_timeout`), so a crashed node surfaces
            :class:`~repro.sim.rpc.RpcTimeout` instead of hanging the
            driver forever.
        client_retry_budget: Attempts a client (and internal read
            fan-outs) make — cycling through alternate Ingestors or
            Readers — before giving up and raising.
        compaction_policy: Which :mod:`repro.lsm.policy` rows the
            Ingestors and Compactors run their compactions by.
            ``"leveling"`` (the paper's hybrid: tiering L0->L1, leveled
            L2/L3) is the historical, byte-identical default; the
            others are ``"tiering"``, ``"lazy_leveling"``, and
            ``"one_leveling"``.
        costs: The compute cost model.
    """

    key_range: int = 100_000
    memtable_entries: int = 500
    sstable_entries: int = 100
    l0_threshold: int = 10
    l1_threshold: int = 10
    l2_threshold: int = 100
    l3_threshold: int = 1_000
    delta: float = 0.005
    gc_slack: float = 2.0
    max_inflight_tables: int = 120
    ack_timeout: float = 30.0
    forward_backoff_base: float = 0.05
    forward_backoff_cap: float = 2.0
    forward_retry_budget: int = 6
    client_timeout: float | None = None
    client_retry_budget: int = 4
    compaction_policy: str = "leveling"
    costs: CostModel = DEFAULT_COSTS

    def __post_init__(self) -> None:
        if self.key_range <= 0:
            raise InvalidConfigError("key_range must be positive")
        if self.memtable_entries <= 0 or self.sstable_entries <= 0:
            raise InvalidConfigError("entry counts must be positive")
        if min(self.l0_threshold, self.l1_threshold, self.l2_threshold) <= 0:
            raise InvalidConfigError("level thresholds must be positive")
        if self.l3_threshold < 0:
            raise InvalidConfigError("l3_threshold must be non-negative")
        if self.delta < 0 or self.gc_slack < 0:
            raise InvalidConfigError("delta and gc_slack must be non-negative")
        if self.gc_slack < 2.0 * self.delta:
            raise InvalidConfigError("gc_slack must be at least 2*delta")
        if self.max_inflight_tables <= 0:
            raise InvalidConfigError("max_inflight_tables must be positive")
        if self.forward_backoff_base <= 0 or self.forward_backoff_cap <= 0:
            raise InvalidConfigError("forward backoff parameters must be positive")
        if self.forward_backoff_cap < self.forward_backoff_base:
            raise InvalidConfigError("forward_backoff_cap must be >= base")
        if self.forward_retry_budget <= 0 or self.client_retry_budget <= 0:
            raise InvalidConfigError("retry budgets must be positive")
        if self.client_timeout is not None and self.client_timeout <= 0:
            raise InvalidConfigError("client_timeout must be positive")
        from repro.lsm.policy import normalize_policy_name

        normalize_policy_name(self.compaction_policy)  # raises if unknown

    @property
    def request_timeout(self) -> float:
        """The effective per-RPC timeout clients (and internal read
        fan-outs) use: ``client_timeout`` if set, else ``2 * ack_timeout``."""
        if self.client_timeout is not None:
            return self.client_timeout
        return 2.0 * self.ack_timeout

    @classmethod
    def paper_100k(cls, **overrides) -> "CooLSMConfig":
        """The paper's 100K key-range setup."""
        defaults = dict(
            key_range=100_000,
            l0_threshold=10,
            l1_threshold=10,
            l2_threshold=100,
            l3_threshold=1_000,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper_300k(cls, **overrides) -> "CooLSMConfig":
        """The paper's 300K key-range setup (3x bigger tree)."""
        defaults = dict(
            key_range=300_000,
            l0_threshold=10,
            l1_threshold=10,
            l2_threshold=300,
            l3_threshold=3_000,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def for_key_range(cls, key_range: int, **overrides) -> "CooLSMConfig":
        """Preset selection by key range, as in the paper."""
        if key_range >= 300_000:
            return cls.paper_300k(key_range=key_range, **overrides)
        return cls.paper_100k(key_range=key_range, **overrides)

    def scaled_down(self, factor: int = 10) -> "CooLSMConfig":
        """A proportionally smaller configuration for fast tests.

        Divides key range, batch size, and L2/L3 thresholds by
        ``factor`` while keeping the paper's 10x level ratios, so the
        dynamics (compaction cadence, forwarding) are preserved.
        """
        if factor <= 0:
            raise InvalidConfigError("factor must be positive")
        return replace(
            self,
            key_range=max(1, self.key_range // factor),
            memtable_entries=max(10, self.memtable_entries // factor),
            sstable_entries=max(10, self.sstable_entries // factor),
            l2_threshold=max(2, self.l2_threshold // factor),
            l3_threshold=max(2, self.l3_threshold // factor),
            max_inflight_tables=max(4, self.max_inflight_tables // factor),
        )
