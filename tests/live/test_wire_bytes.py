"""The codec's bytes are pinned: one fixed digest per message kind.

The encoder dispatches on the value's type through tables; these
digests were taken from the ``isinstance``-chain encoder it replaced,
so a table that sends a class through the wrong form (the generic
message form instead of a packed form, say) changes bytes here
before it changes ``live.wire.bytes_per_op`` in a benchmark.  The
``RangeQueryReply`` digest is the one taken since, when the scan reply
got its packed form.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import messages, shard
from repro.live import wire
from repro.lsm.entry import Entry, encode_key
from repro.lsm.sstable import SSTable, sort_run
from repro.sim import rpc


def _entry(key: int, tombstone: bool = False) -> Entry:
    return Entry(encode_key(key), key + 1, float(key) + 0.5, b"v%d" % key, tombstone=tombstone)


def _table(table_id: int, keys: range) -> SSTable:
    return SSTable(sort_run([_entry(k) for k in keys]), table_id=table_id)


_MAP = shard.ShardMap(
    3, (shard.Shard(None, "ingestor-0", 2), shard.Shard(b"m", "ingestor-1"))
)

#: One instance of every registered message class.
SAMPLES = {
    "UpsertRequest": messages.UpsertRequest(b"k", b"v", tombstone=True),
    "UpsertReply": messages.UpsertReply(1.5, 9),
    "ReadRequest": messages.ReadRequest(b"k", as_of=2.25),
    "ReadReply": messages.ReadReply(_entry(5), "reader-0"),
    "Phase1Request": messages.Phase1Request(b"k"),
    "IngestorReadResult": messages.IngestorReadResult(_entry(7, True), 0.5, "ingestor-1"),
    "Phase1Reply": messages.Phase1Reply(
        1.0, (messages.IngestorReadResult(None, 2.1, "ingestor-0"),)
    ),
    "ForwardRequest": messages.ForwardRequest(
        (_table(11, range(5)), _table(12, range(5, 9))), 9.5, 3, "ingestor-0"
    ),
    "ForwardReply": messages.ForwardReply(4, 100),
    "BackupUpdate": messages.BackupUpdate(
        "compactor-1", 17, (1, 2, 3), (_table(13, range(3)),), ()
    ),
    "IngestorL1Update": messages.IngestorL1Update((_table(14, range(2)),), "ingestor-0"),
    "RangeQuery": messages.RangeQuery(b"a", b"z", limit=10),
    "RangeQueryReply": messages.RangeQueryReply(((b"k", b"v"), (b"k2", b"v2"))),
    "HealthPing": messages.HealthPing(42),
    "HealthReply": messages.HealthReply("n", 42, 3.25, 2, {"inflight": 2, "lag": 0.5}),
    "UpsertBatchRequest": messages.UpsertBatchRequest(
        (messages.UpsertRequest(b"a", b"1"), messages.UpsertRequest(b"b", b"", True))
    ),
    "UpsertBatchReply": messages.UpsertBatchReply(
        (messages.UpsertReply(1.0, 1), messages.UpsertReply(1.5, 2))
    ),
    "Shard": shard.Shard(b"m", "ingestor-1", 4),
    "ShardMap": _MAP,
    "ShardMapRequest": messages.ShardMapRequest(2),
    "ShardMapReply": messages.ShardMapReply(_MAP),
    "InstallShardMap": messages.InstallShardMap(_MAP, clock_floor=7.5),
    "InstallShardMapReply": messages.InstallShardMapReply(3, True),
    "ShardDrainRequest": messages.ShardDrainRequest(),
    "ShardDrainReply": messages.ShardDrainReply((1, 2), 3, 4.5, 5.5),
    "_Request": rpc._Request(7, "upsert", messages.UpsertRequest(b"k", b"v"), 256),
    "_Response": rpc._Response(7, messages.UpsertReply(1.0, 1), None),
    "_Cast": rpc._Cast("backup_update", messages.BackupUpdate("c", 1, (), (), ())),
}

#: sha256 of ``encode_envelope(1, "src", "dst", sample)`` per kind.
DIGESTS = {
    "BackupUpdate": "ba1be4b12ffa1651b0c6c055fb36c117aa5fa29e28d79b5467d33480950c1364",
    "ForwardReply": "fb02cdea72b258b3d760d3ba7671d9f9bd379c1bb80a6d90ad81c379b44958f3",
    "ForwardRequest": "6c8f186022b78c0eb079f83c410985f01d98466691a5062dfbf8683a672edac7",
    "HealthPing": "edf62f8022b1db5a73080ee365198fccd158b6a21b180887382f6667b8ebd3d3",
    "HealthReply": "41bf09f0f80d8de16cfcaa4b6722a9676429f680c5c0aa4ea7c8922556172fd4",
    "IngestorL1Update": "9233270b0603adfadbb08d6991fbbc42882c06882eb96d0a14c7aac3d7f0b511",
    "IngestorReadResult": "6f1068876cd6b5cbf96f36452a5148a2190bcb80caba9c6443ae0d5ba9adc707",
    "InstallShardMap": "295dfbb80ef3ea71ad8395fab9d846e90df702bd228e26b6aae6fa5c5e29a6b8",
    "InstallShardMapReply": "616ebec331de3a8522698025398caf684c01cd76e640512565215515fda23be3",
    "Phase1Reply": "80042fd75e7d78b58339d7f25dd6671d1934deec25787715ef92cb8c9b9ba61f",
    "Phase1Request": "733c7c6389c178f4b59a8832964df05f2a5663aa61b04f926d1821ffad39375a",
    "RangeQuery": "a4a88dde10ac0a8ac5f91df983578e220db4411751fe97d6c087531151e35498",
    "RangeQueryReply": "8022c7bb2286c483b35e611212962ee4ba249d1afa3a0763de8767c8ddbfd1cf",
    "ReadReply": "fab5e417ec42a5d858f5f06a1a2273e07453f90cc3eb9faf9f3dfe9f01516cd5",
    "ReadRequest": "19adb18f5875bb7469f3c42554ce9cc4dfda0a28c11303b1590d76579efeece4",
    "Shard": "b8d9bbe9a8467627c9a8bf84e6f12c4d4baf9b37aed2a346276bff3bb010808e",
    "ShardDrainReply": "e242b1f4377dd0015ce197ebe2851b52309133850101f86ff924a9e87d1461c5",
    "ShardDrainRequest": "bc568e2324a01132f49a0b3719d0504c94f98e96c61e82c60d5da8af61cf820b",
    "ShardMap": "2a4250f544d8329de3eb8f793b47d4006e741c2e0d0677f97c44edfe5298918c",
    "ShardMapReply": "bfa91a95d3b69473342e0269fb8c7e1e1aeabecb3d7bd0ca4ac08f1a37e2a98b",
    "ShardMapRequest": "5a769ffe97d5c3c61622e090c15bb18abb4c3c8b9d187002535b21862ac3e619",
    "UpsertBatchReply": "07cd38c4bb97bb840f3b78dfab779e96688084d6c55b824300d16f77dc47d13d",
    "UpsertBatchRequest": "33904eeda74e91bbfc5da7634d9578e72117e042d321678a75f35e604ca5c9bb",
    "UpsertReply": "a6d98ef8cf4f6c62f877e96cc6471ace9185e9a77a0d37118121b70cd7a42a5c",
    "UpsertRequest": "bfcaf19ef1b4d6555c98a8abff5ae8e22e0c7591c45c4076b376ec156abb2666",
    "_Cast": "695a39ec527c91fac40e0ef7322df4e950883218c7964fb8f4a6f8e686347a96",
    "_Request": "a46b71277e37150d9b4891cdbce3401330e6040e65b7d5874fb1c2fced138529",
    "_Response": "5aa2d202d7402c612a77b3c184f5d10189368f2e78c1881d04c88f2a91b1058d",
}

BATCH_DIGEST = "98e12effa7470b01a64e41f8afdc9110aa8e955b210810959187c9a8d464d0f9"

RANGE_REPLY_DIGEST = "884a8ea72dad2fc0d272c486b21d39248d597e4a53aab960dd117d04dff2b404"


def _digest(message) -> str:
    return hashlib.sha256(wire.encode_envelope(1, "src", "dst", message)).hexdigest()


def test_every_registered_kind_is_sampled():
    assert {cls.__name__ for cls in wire.message_registry()} == set(SAMPLES)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_message_bytes_unchanged(kind):
    assert _digest(SAMPLES[kind]) == DIGESTS[kind]


def test_128_op_batch_request_bytes_unchanged():
    ops = tuple(
        messages.UpsertRequest(encode_key(i), b"value-%04d" % i, tombstone=i % 17 == 0)
        for i in range(128)
    )
    request = rpc._Request(9, "upsert_batch", messages.UpsertBatchRequest(ops), 256)
    assert _digest(request) == BATCH_DIGEST


def test_100_pair_range_reply_bytes_unchanged():
    pairs = tuple((b"key-%016d" % i, b"value-%010d" % i) for i in range(100))
    response = rpc._Response(9, messages.RangeQueryReply(pairs), None)
    assert _digest(response) == RANGE_REPLY_DIGEST
