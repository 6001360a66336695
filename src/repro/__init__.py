"""CooLSM reproduction: distributed cooperative LSM indexing across edge
and cloud machines (Mittal & Nawab, ICDE 2021).

Subpackages:

- :mod:`repro.lsm` — single-node LSM engine (memtable, sstables, bloom
  filters, WAL, compaction), the substrate every component builds on.
- :mod:`repro.sim` — deterministic discrete-event simulator: machines,
  regions, wide-area network, RPC, loosely synchronised clocks.
- :mod:`repro.core` — CooLSM itself: Ingestors, Compactors, Readers,
  the client protocols, and the consistency checkers.
- :mod:`repro.replication` — Paxos-replicated logs and Compactor
  failover (Section III-H).
- :mod:`repro.workloads` — workload generators, including the smart
  traffic benchmark (Section IV-E).
- :mod:`repro.bench` — the experiment harness regenerating every table
  and figure of the paper's evaluation.
"""

__version__ = "1.0.0"
