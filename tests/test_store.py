"""Tests for ``repro.store``: packed databases.

Three layers:

* the packed columnar format — content round-trip, shard windows,
  read-only surface, corruption detection;
* digest compatibility — a packed snapshot of config C produces the
  same cache keys as C itself (the property that lets materialized and
  mmap replicas share every cache entry);
* byte-identity — search-shard scans over the packed database equal
  the in-memory path for all three algorithms.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.align.batch import SearchParams
from repro.bio.synthetic import SyntheticDatabaseConfig, generate_database
from repro.runtime.keys import search_shard_key
from repro.runtime.tasks import execute_search_shard
from repro.store.packdb import (
    PackedDatabaseError,
    PackedDatabaseRef,
    open_packed,
    pack_database,
    packed_source_key,
    reset_packed_memos,
    verify_packed,
)

DB = SyntheticDatabaseConfig(
    sequence_count=12,
    family_count=2,
    family_size=3,
    seed=7,
    mean_length=90.0,
)

ALGORITHMS = ("ssearch", "fasta", "blast")


@pytest.fixture()
def packed(tmp_path):
    database = generate_database(DB)
    path = pack_database(database, tmp_path / "db", source_config=DB)
    yield path
    reset_packed_memos()


# -- packed columnar format --------------------------------------------------


class TestPackedDatabase:
    def test_content_round_trips_exactly(self, packed):
        original = generate_database(DB)
        snapshot = open_packed(packed)
        assert snapshot.name == original.name
        assert len(snapshot) == len(original)
        assert snapshot.residue_count == original.residue_count
        for theirs, ours in zip(original, snapshot):
            assert ours.identifier == theirs.identifier
            assert ours.text == theirs.text
            assert ours.codes == theirs.codes
            assert ours.description == theirs.description
        assert snapshot.stats() == original.stats()

    def test_shard_windows_match_generated(self, packed):
        original = generate_database(DB)
        snapshot = open_packed(packed)
        assert list(snapshot.shard_bounds(3)) == list(
            original.shard_bounds(3)
        )
        for index in range(3):
            theirs = [s.identifier for s in original.shard(index, 3)]
            ours = [s.identifier for s in snapshot.shard(index, 3)]
            assert ours == theirs
        assert [s.text for s in snapshot.slice(5)] == [
            s.text for s in original.slice(5)
        ]

    def test_id_lookup_and_membership(self, packed):
        original = generate_database(DB)
        snapshot = open_packed(packed)
        identifier = original[3].identifier
        assert identifier in snapshot
        assert snapshot.get(identifier).text == original[3].text
        assert snapshot.get("no-such-id") is None

    def test_snapshots_are_read_only(self, packed):
        snapshot = open_packed(packed)
        with pytest.raises(TypeError):
            snapshot.add(generate_database(DB)[0])

    def test_pack_refuses_overwrite_unless_asked(self, tmp_path):
        database = generate_database(DB)
        target = tmp_path / "db"
        pack_database(database, target, source_config=DB)
        with pytest.raises(FileExistsError):
            pack_database(database, target, source_config=DB)
        pack_database(database, target, source_config=DB, overwrite=True)
        reset_packed_memos()
        assert verify_packed(target)["sequence_count"] == len(database)

    def test_verify_detects_column_corruption(self, packed):
        verify_packed(packed)  # clean snapshot passes
        column = packed / "residues.npy"
        blob = bytearray(column.read_bytes())
        blob[-1] ^= 0xFF
        column.write_bytes(bytes(blob))
        with pytest.raises(PackedDatabaseError, match="digest mismatch"):
            verify_packed(packed)

    def test_open_rejects_bad_header_and_version(self, tmp_path, packed):
        with pytest.raises(PackedDatabaseError, match="no readable"):
            open_packed(tmp_path / "missing")
        header_path = packed / "header.json"
        header = json.loads(header_path.read_text())
        header["format_version"] = 99
        header_path.write_text(json.dumps(header))
        reset_packed_memos()
        with pytest.raises(PackedDatabaseError, match="unsupported"):
            open_packed(packed)


# -- digest compatibility ----------------------------------------------------


class TestDigestCompatibility:
    def test_source_key_is_the_config_astuple(self, packed):
        key = packed_source_key(PackedDatabaseRef(str(packed)))
        assert key == dataclasses.astuple(DB)

    def test_search_shard_keys_identical(self, packed):
        params = SearchParams(algorithm="blast", best_count=50)
        text = generate_database(DB)[0].text[:40]
        via_config = search_shard_key(params.key(), text, DB, 0, 2)
        via_ref = search_shard_key(
            params.key(), text, PackedDatabaseRef(str(packed)), 0, 2
        )
        assert via_config == via_ref

    def test_unpinned_pack_gets_content_key(self, tmp_path):
        database = generate_database(DB)
        path = pack_database(database, tmp_path / "anon")
        key = packed_source_key(PackedDatabaseRef(str(path)))
        reset_packed_memos()
        assert key != dataclasses.astuple(DB)
        assert key[0] == "packed"


# -- byte-identity of scans --------------------------------------------------


class TestScanByteIdentity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_packed_scan_equals_in_memory(self, packed, algorithm):
        params = SearchParams(algorithm=algorithm, best_count=25)
        queries = (("q0", generate_database(DB)[0].text[:40]),)
        for shard_index in range(2):
            in_memory = execute_search_shard(
                (params.key(), queries, DB, shard_index, 2)
            )
            mapped = execute_search_shard((
                params.key(), queries,
                PackedDatabaseRef(str(packed)), shard_index, 2,
            ))
            assert json.dumps(in_memory, sort_keys=True) == json.dumps(
                mapped, sort_keys=True
            )
