"""Write flow control (DESIGN.md §18): compaction-debt accounting, the
two-threshold admission controller, Backpressure over the wire with
client backoff, and the stall/debt observability surface.

Flow control is off by default — the default write path must not touch
the controller — so these tests also pin the flow-off null behaviour.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import ClusterSpec, CooLSMConfig, build_cluster
from repro.core.costs import CostModel
from repro.core.flow import (
    STATE_OK,
    STATE_SLOWDOWN,
    STATE_STALL,
    AdmissionController,
    BackpressureError,
    is_backpressure,
)
from repro.core.monitor import ClusterMonitor
from repro.sim.rpc import RemoteError, RpcTimeout

#: Defaults: thresholds 10/10/120, slowdown 1.5, stall 2.5, delay 0.01.
DEFAULT = CooLSMConfig()

#: A small, compaction-heavy cluster config for end-to-end flow tests:
#: aggressive thresholds so a few hundred writes produce many minor
#: compactions, forwards, and inflight-ack waits — the stall mechanics.
SMALL = CooLSMConfig(
    key_range=4_096,
    memtable_entries=8,
    sstable_entries=8,
    l0_threshold=2,
    l1_threshold=2,
    l2_threshold=4,
    l3_threshold=16,
    max_inflight_tables=4,
    delta=0.002,
    ack_timeout=0.5,
    client_timeout=1.0,
)


class TestAdmissionController:
    def make(self, **overrides) -> AdmissionController:
        return AdmissionController(replace(DEFAULT, **overrides), "ingestor-0")

    def test_low_debt_admits_undelayed(self):
        ctl = self.make()
        snap = ctl.snapshot(5, 3, 10)
        assert snap.debt == pytest.approx(0.5)
        assert ctl.admit(snap, now=1.0) == 0.0
        assert ctl.state == STATE_OK
        assert ctl.admitted == 1 and ctl.delayed == 0 and ctl.rejected == 0

    def test_graduated_delay_between_thresholds(self):
        ctl = self.make()
        # Debt 2.0 sits halfway between slowdown 1.5 and stall 2.5.
        delay = ctl.admit(ctl.snapshot(20, 0, 0), now=1.0)
        assert delay == pytest.approx(0.5 * DEFAULT.flow_max_delay)
        assert ctl.state == STATE_SLOWDOWN
        assert ctl.admitted == 1 and ctl.delayed == 1
        assert ctl.delay_time == pytest.approx(delay)

    def test_delay_approaches_max_near_stall(self):
        ctl = self.make()
        # Debt 2.4 is 90% of the way from slowdown (1.5) to stall (2.5);
        # the delay never exceeds flow_max_delay because anything past
        # the stall threshold is rejected instead of delayed.
        delay = ctl.admit(ctl.snapshot(24, 0, 0), now=1.0)
        assert delay == pytest.approx(0.9 * DEFAULT.flow_max_delay)
        assert delay < DEFAULT.flow_max_delay

    def test_stall_rejects_then_closes_on_recovery(self):
        ctl = self.make()
        with pytest.raises(BackpressureError) as excinfo:
            ctl.admit(ctl.snapshot(25, 0, 0), now=2.0)
        assert ctl.state == STATE_STALL
        assert ctl.rejected == 1
        assert is_backpressure(excinfo.value)
        # Still stalled: the open stall is not double-counted.
        with pytest.raises(BackpressureError):
            ctl.admit(ctl.snapshot(26, 0, 0), now=2.5)
        assert ctl.stall_events == []
        # Debt drained: the stall closes with its full duration.
        assert ctl.admit(ctl.snapshot(1, 0, 0), now=5.0) == 0.0
        assert ctl.state == STATE_OK
        assert len(ctl.stall_events) == 1
        event = ctl.stall_events[0]
        assert event.start == 2.0
        assert event.duration == pytest.approx(3.0)
        assert event.trigger == "l0_tables"
        assert ctl.stall_time == pytest.approx(3.0)

    def test_trigger_names_dominating_component(self):
        ctl = self.make()
        assert ctl.snapshot(20, 0, 0).trigger == "l0_tables"
        assert ctl.snapshot(0, 30, 0).trigger == "l1_backlog"
        assert ctl.snapshot(0, 0, 360).trigger == "inflight_forwards"

    def test_record_stall_for_blocking_waits(self):
        ctl = self.make()
        ctl.record_stall(1.0, 0.25, "inflight_acks")
        assert ctl.stall_time == pytest.approx(0.25)
        assert ctl.stall_events[0].trigger == "inflight_acks"

    def test_gauges_surface(self):
        ctl = self.make()
        ctl.admit(ctl.snapshot(20, 0, 0), now=1.0)
        gauges = ctl.gauges()
        assert set(gauges) >= {
            "compaction_debt",
            "admission_state",
            "admission_admitted",
            "admission_rejections",
            "admission_delays",
            "admission_delay_time",
            "stall_events",
            "stall_time",
        }
        assert gauges["compaction_debt"] == pytest.approx(2.0)
        assert gauges["admission_state"] == 1  # slowdown

    def test_config_validation(self):
        from repro.lsm.errors import InvalidConfigError

        with pytest.raises(InvalidConfigError):
            CooLSMConfig(flow_stall_debt=1.0, flow_slowdown_debt=1.5)
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(flow_max_delay=-0.1)


class TestBackpressureMarker:
    """The Backpressure signal must survive the wire: remote handler
    errors arrive as RemoteError carrying the original message."""

    def test_error_carries_context(self):
        error = BackpressureError("ingestor-0", 2.7, "l0_tables")
        text = str(error)
        assert "BACKPRESSURE" in text
        assert "ingestor-0" in text and "l0_tables" in text

    def test_survives_remote_error_wrapping(self):
        error = BackpressureError("ingestor-0", 2.7, "l0_tables")
        wrapped = RemoteError(f"ingestor-0 upsert failed: {error}")
        assert is_backpressure(wrapped)

    def test_other_errors_not_marked(self):
        assert not is_backpressure(RemoteError("boom"))
        assert not is_backpressure(RpcTimeout("slow"))
        assert not is_backpressure(None)


def _run_write_storm(config: CooLSMConfig, clients: int = 4, per_client: int = 150):
    """Drive concurrent unpaced writers (disjoint key ranges) and read
    everything back.  Returns (cluster, client handles, lost keys)."""
    cluster = build_cluster(
        ClusterSpec(config=config, num_ingestors=1, num_compactors=2)
    )
    handles = [
        cluster.add_client(colocate_with="ingestor-0") for _ in range(clients)
    ]
    oracle: dict[int, bytes] = {}

    def writer(idx: int):
        client = handles[idx]

        def driver():
            for i in range(per_client):
                key = idx * 1_000 + i
                value = b"w%d-%d" % (idx, i)
                while True:
                    try:
                        yield from client.upsert(key, value)
                        break
                    except (RpcTimeout, RemoteError):
                        continue
                oracle[key] = value

        return driver

    for idx in range(clients):
        cluster.run_process(writer(idx)())
    cluster.run()

    lost = []

    def check():
        reader = handles[0]
        for key, expect in sorted(oracle.items()):
            got = yield from reader.read(key)
            if got != expect:
                lost.append(key)

    cluster.run_process(check())
    cluster.run()
    assert len(oracle) == clients * per_client
    return cluster, handles, lost


class TestFlowControlledCluster:
    #: Aggressive setup so the storm crosses both thresholds.  Debt
    #: moves in discrete steps (table counts over thresholds of 4 and
    #: an in-flight cap of 4: 0.25, 0.5, ..., 1.25, 1.5), so the
    #: slowdown band [0.9, 1.2) captures the routine 1.0 step and 1.25
    #: rejects.  The stall threshold stays above 1.0 — at or below 1.0
    #: a quiescent tree could sit at a level threshold and livelock
    #: every writer — and slow merges hold debt elevated long enough
    #: for concurrent admits to observe it.
    FLOW = replace(
        SMALL,
        l0_threshold=4,
        l1_threshold=4,
        costs=CostModel(merge_per_entry=800e-6, flush_per_entry=50e-6),
        flow_control=True,
        flow_slowdown_debt=0.9,
        flow_stall_debt=1.2,
        flow_max_delay=0.002,
    )

    def test_storm_survives_backpressure_with_no_loss(self):
        cluster, handles, lost = _run_write_storm(self.FLOW)
        assert lost == []
        admission = cluster.ingestors[0].admission
        assert admission.admitted > 0
        assert admission.delayed > 0
        assert admission.rejected > 0
        retries = sum(c.stats.backpressure_retries for c in handles)
        assert retries >= admission.rejected

    def test_health_gauges_expose_flow_state(self):
        cluster, _, _ = _run_write_storm(self.FLOW, clients=2, per_client=60)
        gauges = cluster.ingestors[0].health_gauges()
        assert gauges["flow_control"] == 1
        assert "compaction_debt" in gauges
        assert gauges["admission_admitted"] > 0
        assert gauges["stall_events"] >= 0

    def test_monitor_records_flow_timeline(self):
        cluster = build_cluster(
            ClusterSpec(config=self.FLOW, num_ingestors=1, num_compactors=2)
        )
        client = cluster.add_client(colocate_with="ingestor-0")
        monitor = ClusterMonitor(cluster, interval=0.01)
        monitor.start()

        def driver():
            for i in range(200):
                while True:
                    try:
                        yield from client.upsert(i, b"m-%d" % i)
                        break
                    except (RpcTimeout, RemoteError):
                        continue
            monitor.stop()

        cluster.run_process(driver())
        cluster.run()
        timeline = monitor.timeline
        name = cluster.ingestors[0].name
        debt = timeline.series(name, "compaction_debt")
        assert debt, "monitor never sampled flow gauges"
        assert timeline.peak(name, "compaction_debt") > 0
        assert timeline.series(name, "admission_state")
        assert timeline.series(name, "stall_time")
        compactor = cluster.compactors[0].name
        assert timeline.series(compactor, "l2_debt")


class TestFlowControlOffByDefault:
    def test_default_write_path_never_consults_admission(self):
        cluster, handles, lost = _run_write_storm(SMALL, clients=2, per_client=80)
        assert lost == []
        admission = cluster.ingestors[0].admission
        assert admission.admitted == 0
        assert admission.delayed == 0
        assert admission.rejected == 0
        assert sum(c.stats.backpressure_retries for c in handles) == 0

    def test_health_gauges_report_flow_disabled(self):
        cluster, _, _ = _run_write_storm(SMALL, clients=1, per_client=40)
        gauges = cluster.ingestors[0].health_gauges()
        assert gauges["flow_control"] == 0
        assert gauges["admission_rejections"] == 0


def _run_bursty_schedule(flow_control: bool):
    """One deterministic run of a fixed open-loop write schedule: 4
    writers x 500 ops in bursts of 100 ops 0.2 ms apart (within a burst
    the fleet offers ~20k ops/s, far above what the merge pipeline
    absorbs at ``SMALL``'s thresholds) separated by 0.1 s gaps that
    bring the *average* offered load back under capacity.  Returns
    (acked writes per the clients' own ledgers, the Ingestor's
    admission controller)."""
    writers, per_writer, burst_ops, burst_pace, gap = 4, 500, 100, 0.0002, 0.1
    config = replace(SMALL, flow_control=flow_control)
    cluster = build_cluster(
        ClusterSpec(config=config, num_ingestors=1, num_compactors=2, seed=0)
    )
    kernel = cluster.kernel
    clients = [
        cluster.add_client(colocate_with="ingestor-0", record_history=False)
        for _ in range(writers)
    ]

    def writer(client, index):
        start = kernel.now
        for i in range(per_writer):
            intended = (
                start
                + (i // burst_ops) * (burst_ops * burst_pace + gap)
                + (i % burst_ops) * burst_pace
            )
            if kernel.now < intended:
                yield kernel.timeout(intended - kernel.now)
            key = (index * per_writer + i) % config.key_range
            while True:
                try:
                    yield from client.upsert(key, b"st-%d-%d" % (index, i))
                    break
                except (RpcTimeout, RemoteError):
                    continue

    processes = [
        kernel.spawn(writer(client, index), f"bursty-writer-{index}")
        for index, client in enumerate(clients)
    ]

    def barrier():
        yield kernel.all_of(processes)

    cluster.run_process(barrier())
    cluster.run()
    acked = sum(len(client.stats.all("write")) for client in clients)
    return acked, cluster.ingestors[0].admission


class TestFlowControlSpreadsBursts:
    def test_bursty_overload_stalls_less_with_flow_control(self):
        """Bursty above-capacity load is where flow control earns its
        keep: without it every burst lands as compaction debt and pops
        as a blocking stall; with it the burst is spread into the gap.
        Both runs see the identical schedule (equal offered load) and
        the simulator is deterministic, so the comparison is exact."""
        acked_off, admission_off = _run_bursty_schedule(flow_control=False)
        acked_on, admission_on = _run_bursty_schedule(flow_control=True)
        assert acked_off == acked_on == 2_000  # delayed, never dropped
        assert admission_on.delayed > 0
        assert admission_on.stall_time < admission_off.stall_time
