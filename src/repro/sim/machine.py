"""Machines: bounded compute shared by the nodes placed on them.

The paper's instances are t2.xlarge: four cores.  Each
:class:`Machine` exposes a core pool; every simulated compute step (a
merge, a probe, batch encoding) acquires a core for its modelled service
time.  This is what makes compaction *interfere* with ingestion when
Ingestor and Compactor are placed on one machine (the monolithic
baseline, :data:`repro.core.MONOLITH`), and what
makes the multithreaded-client case of Figure 5 stop scaling while
distributed clients scale.
"""

from __future__ import annotations

from .kernel import Kernel
from .regions import Region
from .resources import Resource

#: Core count of the paper's t2.xlarge instances.
DEFAULT_CORES = 4


class Machine:
    """A simulated host with a region and a core pool.

    Args:
        kernel: The simulation kernel.
        name: Unique machine name (used for loopback detection).
        region: Where the machine lives (drives WAN latency).
        cores: Number of cores (compute jobs run truly in parallel up to
            this count; beyond it they queue FIFO).
        speed: Relative speed multiplier; edge hardware can be modelled
            as ``speed < 1``.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        region: Region,
        cores: int = DEFAULT_CORES,
        speed: float = 1.0,
    ) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.kernel = kernel
        self.name = name
        self.region = region
        self.speed = speed
        self.cores = Resource(kernel, cores)
        self.busy_time = 0.0  # cumulative core-seconds consumed

    def execute(self, cost_seconds: float):
        """Process helper: run a compute job of the given nominal cost.

        Usage: ``yield from machine.execute(0.003)``.  The job holds one
        core for ``cost_seconds / speed`` simulated seconds; if all cores
        are busy it waits its turn first.
        """
        if cost_seconds < 0:
            raise ValueError("cost must be non-negative")
        if cost_seconds == 0:
            return
        duration = cost_seconds / self.speed
        self.busy_time += duration
        yield from self.cores.use(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.name!r}, {self.region.value})"
