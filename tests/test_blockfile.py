import collections
import dataclasses
import errno
import math
import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import adaptidx.blockfile as blockfile
import adaptidx.execution as execution
from adaptidx.blocks import DataBlock, Schema, SparseClusteredIndex, blocks_equal
from adaptidx.blockfile import (
    OpenReplicas,
    ReadCounter,
    pseudo_replica_path,
    publish_block_once,
    read_block,
    read_column_range,
    read_header,
    read_permutation,
    write_block,
)
from adaptidx.errors import BlockFormatError, SchemaError
from adaptidx.execution import (
    BlockRef,
    InputSplit,
    JobSpec,
    Predicate,
    ScanKind,
    TaskContext,
    record_reader_scan,
)
from adaptidx.indexer import OfferPolicy, build_index
from adaptidx.registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry
from adaptidx.runner import WorkloadRunner
from adaptidx.workloads import (
    SYNTHETIC_SCHEMA,
    USERVISITS_SCHEMA,
    gen_synthetic,
    gen_uservisits_like,
)

from conftest import make_block, make_cluster, make_indexer


def test_round_trip_three_attributes(tmp_path, simple_schema):
    block = make_block(simple_schema, rows=1000, seed=3)
    path = tmp_path / "blk"
    write_block(block, path)
    again = read_block(path)
    assert blocks_equal(block, again)
    assert again.schema == block.schema


def test_empty_block_round_trips(tmp_path):
    schema = Schema.of(("a", "int64"), ("b", "float64"))
    block = DataBlock(0, schema, {"a": np.empty(0, "<i8"), "b": np.empty(0, "<f8")})
    path = tmp_path / "empty"
    write_block(block, path)
    again = read_block(path)
    assert again.record_count == 0
    assert blocks_equal(block, again)


def test_index_section_entry_count(tmp_path, simple_schema):
    # 1000 records at 128 records per page -> ceil(1000/128) = 8 entries
    block = make_block(simple_schema, rows=1000, seed=5)
    indexed, _, _ = build_index(block, "d", page_size_records=128)
    path = tmp_path / "blk"
    write_block(indexed, path)
    again = read_block(path)
    assert again.index is not None
    assert again.index.entry_count == math.ceil(1000 / 128) == 8
    assert again.index.page_size_records == 128
    assert again.sort_attribute == "d"


def test_invalid_block_rejected_before_write(tmp_path, simple_schema):
    block = make_block(simple_schema, rows=10)
    block.columns["a"] = block.columns["a"][:5]  # break the equal-length invariant
    with pytest.raises(SchemaError):
        write_block(block, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


def _sorted_block(**changes) -> DataBlock:
    """Ten rows sorted on `k`, with a four-row-page index, then `changes`."""
    schema = Schema.of(("k", "int64"), ("v", "float64"))
    keys = np.arange(10, dtype="<i8")
    block = DataBlock(0, schema, {"k": keys, "v": np.linspace(0, 1, 10)},
                      SparseClusteredIndex.from_sorted_column("k", keys, 4))
    return dataclasses.replace(block, **changes)


def _index(**changes) -> SparseClusteredIndex:
    return dataclasses.replace(_sorted_block().index, **changes)


_EMPTY = {"k": np.empty(0, "<i8"), "v": np.empty(0, "<f8")}


# One block per refusal of DataBlock.validate and SparseClusteredIndex.validate
# that no other test reaches: a cheaper check must still refuse each.
@pytest.mark.parametrize(
    "block, message",
    [
        # SparseClusteredIndex.validate
        (_sorted_block(columns=_EMPTY, index=_index(record_count=0)),
         "empty index must have no entries"),
        (_sorted_block(index=_index(first_keys=np.empty(0, "<i8"),
                                    start_records=np.empty(0, np.uint64))),
         "non-empty index must have entries"),
        (_sorted_block(index=_index(start_records=np.array([1, 4, 8], np.uint64))),
         "first index entry must start at record 0"),
        (_sorted_block(index=_index(start_records=np.array([0, 4, 4], np.uint64))),
         "index entry starts must be strictly increasing"),
        (_sorted_block(index=_index(first_keys=np.array([0, 8, 4], "<i8"))),
         "index first keys must be non-decreasing"),
        (_sorted_block(index=_index(start_records=np.array([0, 4, 10], np.uint64))),
         "last index entry starts beyond record count"),
        # DataBlock.validate
        (_sorted_block(columns={"k": np.arange(10, dtype="<i8")}),
         "columns do not match schema attributes"),
        (_sorted_block(columns={"k": np.arange(10, dtype="<i4"), "v": np.zeros(10)}),
         "column 'k' dtype int32 != schema int64"),
        (_sorted_block(index=_index(attribute="zz")), "sort attribute 'zz' not in schema"),
        (_sorted_block(columns={"k": np.arange(10, dtype="<i8")[::-1].copy(), "v": np.zeros(10)}),
         "column 'k' is not sorted"),
        (_sorted_block(index=_index(record_count=11)), "index record count does not match block"),
        (_sorted_block(index=_index(first_keys=np.array([0, 5, 8], "<i8"))),
         "index keys are not a subsequence of the column"),
        (_sorted_block(permutation=np.arange(9, dtype="<i8")),
         "permutation vector length does not match block"),
    ],
    ids=lambda case: case if isinstance(case, str) else None,
)
def test_write_block_refuses_a_malformed_block_and_leaves_no_file(tmp_path, block, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        write_block(block, tmp_path / "bad")
    assert list(tmp_path.iterdir()) == []


def test_a_float_sort_column_must_put_its_nans_last(tmp_path):
    # Every comparison with NaN is false, so `>` between neighbours alone
    # passes [0.1, nan, 0.05, 0.2]; the page directory's search needs NaN last.
    schema = Schema.of(("k", "float64"), ("v", "int64"))
    column = np.array([0.1, np.nan, 0.05, 0.2])
    index = SparseClusteredIndex.from_sorted_column("k", column, 4)
    block = DataBlock(0, schema, {"k": column, "v": np.arange(4, dtype="<i8")}, index)
    with pytest.raises(SchemaError, match="NaN before a number"):
        block.validate()
    with pytest.raises(SchemaError):
        write_block(block, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()

    # `build_index` puts NaN keys last, across page starts too.
    rng = np.random.default_rng(2)
    keys = rng.random(40)
    keys[rng.choice(40, 15, replace=False)] = np.nan
    for page in (1, 3, 4, 64):
        indexed = build_index(DataBlock(0, schema, {"k": keys, "v": np.arange(40, dtype="<i8")}),
                              "k", page)[0]
        indexed.validate()
        assert np.isnan(indexed.columns["k"][25:]).all()


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BlockFormatError):
        read_block(path)


def test_unknown_projection_attribute(tmp_path, simple_schema):
    block = make_block(simple_schema, rows=10)
    path = tmp_path / "blk"
    write_block(block, path)
    with pytest.raises(SchemaError):
        read_block(path, projection=["nope"])


def test_full_projection_reads_whole_data_section(tmp_path, simple_schema):
    block = make_block(simple_schema, rows=1000, seed=1)
    path = tmp_path / "blk"
    total = write_block(block, path)
    counter = ReadCounter()
    read_block(path, counter=counter)
    assert counter.bytes_read == total


def test_projection_isolation_bytes(tmp_path):
    # 9-attribute web-log block, project only one column: bytes read must be
    # bounded by header plus that column, and the ratio tracks the column share.
    dataset = gen_uservisits_like(2000, seed=2)
    block = DataBlock(0, USERVISITS_SCHEMA, dataset.columns)
    path = tmp_path / "uv"
    total_bytes = write_block(block, path)

    full = ReadCounter()
    read_block(path, counter=full)

    only = ReadCounter()
    read_block(path, projection=["search_word"], counter=only)

    col_bytes = 2000 * USERVISITS_SCHEMA.attribute("search_word").item_size
    data_bytes = 2000 * USERVISITS_SCHEMA.row_width
    header_bytes = total_bytes - data_bytes
    assert only.bytes_read < full.bytes_read
    assert only.bytes_read <= header_bytes + col_bytes
    measured_ratio = (only.bytes_read - header_bytes) / data_bytes
    assert measured_ratio == pytest.approx(col_bytes / data_bytes, abs=1e-9)


def test_row_range_reads_exact_records(tmp_path):
    # Rows [1024, 2048) of four of five attributes -> 1024 records each.
    schema = Schema.of(("a", "int64"), ("b", "int64"), ("c", "int64"), ("d", "int64"), ("e", "int64"))
    rows = 4096
    columns = {n: np.arange(rows, dtype="<i8") + i for i, n in enumerate(schema.names)}
    block = DataBlock(7, schema, columns)
    path = tmp_path / "blk"
    write_block(block, path)
    counter = ReadCounter()
    with open(path, "rb") as f:
        header = read_header(f)
        got = {
            name: read_column_range(f, header, name, 1024, 2048, counter)
            for name in ("a", "b", "c", "d")
        }
    for name in ("a", "b", "c", "d"):
        assert len(got[name]) == 1024
        assert np.array_equal(got[name], columns[name][1024:2048])
    assert counter.bytes_read == 4 * 1024 * 8  # only the requested rows were fetched


def test_permutation_section_round_trips(tmp_path):
    schema = Schema.of(("d", "int64"), ("b", "float64"))
    block = make_block(schema, rows=500, seed=9)
    sorted_block, perm, _ = build_index(block, "d", page_size_records=64)
    sorted_block.permutation = perm
    path = tmp_path / "partial"
    write_block(sorted_block, path)
    again = read_block(path)
    assert again.permutation is not None
    assert np.array_equal(again.permutation, perm)


def test_write_block_resumes_short_writes_and_splits_long_buffer_lists(tmp_path, monkeypatch):
    # Every section and column kind: an index, a permutation vector, string
    # columns, and a strided column that has to be made contiguous.
    dataset = gen_uservisits_like(600, seed=4)
    block, perm, _ = build_index(DataBlock(0, USERVISITS_SCHEMA, dataset.columns), "search_word", 64)
    block.permutation = perm
    block.columns["ad_revenue"] = np.repeat(block.columns["ad_revenue"], 2)[::2]
    assert not block.columns["ad_revenue"].flags.c_contiguous
    size = write_block(block, tmp_path / "whole")
    expected = (tmp_path / "whole").read_bytes()
    assert size == len(expected)

    calls = []
    writev = os.writev

    def short_writev(fd, buffers):
        calls.append(len(buffers))
        return writev(fd, [bytes(memoryview(buffers[0])[:777])])

    monkeypatch.setattr(blockfile, "_IOV_MAX", 2)
    monkeypatch.setattr(blockfile.os, "writev", short_writev)
    assert write_block(block, tmp_path / "short") == size
    assert (tmp_path / "short").read_bytes() == expected
    assert max(calls) == 2 and len(calls) > len(expected) // 777
    assert blocks_equal(read_block(tmp_path / "short"), block)


def test_pseudo_replica_path_convention(tmp_path):
    p = pseudo_replica_path(tmp_path, 42, "d")
    assert str(p).endswith("pseudo/blk_42/d")
    assert pseudo_replica_path(tmp_path, 42, "d") == p
    assert pseudo_replica_path(tmp_path, 42, "e") != p
    assert pseudo_replica_path(tmp_path, 43, "d") != p


def test_publish_block_once_loser_cleans_up(tmp_path, simple_schema):
    final = tmp_path / "blk_0" / "target"  # the first publish makes the directory
    assert publish_block_once(make_block(simple_schema, rows=20, seed=1), final) is True
    won = final.read_bytes()
    assert publish_block_once(make_block(simple_schema, rows=30, seed=2), final) is False
    assert final.read_bytes() == won
    assert os.listdir(final.parent) == ["target"]


@pytest.mark.parametrize("exclusive", [False, True])
def test_a_write_that_fails_partway_leaves_no_file(tmp_path, simple_schema, monkeypatch, exclusive):
    block = make_block(simple_schema, rows=1000)
    path = tmp_path / "blk"
    if not exclusive:
        path.write_bytes(b"truncated by the open")
    writev = os.writev

    def fail_after_the_header(fd, buffers):
        writev(fd, buffers[:1])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "writev", fail_after_the_header)
    with pytest.raises(OSError, match="No space"):
        write_block(block, path, exclusive=exclusive)
    assert not path.exists()

    def no_unlink(*args, **kwargs):
        raise PermissionError("unlink refused")

    monkeypatch.setattr(os, "unlink", no_unlink)
    with pytest.raises(OSError, match="No space"):  # not hidden by the failed cleanup
        write_block(block, path, exclusive=exclusive)


def test_an_exclusive_write_never_removes_a_file_it_did_not_create(
    tmp_path, simple_schema, monkeypatch
):
    path = tmp_path / "blk"
    path.write_bytes(b"another writer's")
    unlinked = []
    monkeypatch.setattr(os, "unlink", lambda *args, **kwargs: unlinked.append(args))
    with pytest.raises(FileExistsError):
        write_block(make_block(simple_schema, rows=10), path, exclusive=True)
    assert path.read_bytes() == b"another writer's" and not unlinked


@given(st.integers(0, 2**31), st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1))
@settings(max_examples=40, deadline=None)
def test_projection_isolation_property(tmp_path_factory, seed, names):
    # bytes read <= header bytes + projected column bytes + index bytes
    schema = Schema.of(("a", "int64"), ("b", "float64"), ("c", "string", 8), ("d", "int64"))
    block = make_block(schema, rows=300, seed=seed)
    indexed, _, _ = build_index(block, "d", page_size_records=64)
    path = tmp_path_factory.mktemp("iso") / "blk"
    total = write_block(indexed, path)
    data_bytes = 300 * schema.row_width
    header_and_index = total - data_bytes

    counter = ReadCounter()
    read_block(path, projection=sorted(names), counter=counter)
    column_bytes = sum(300 * schema.attribute(n).item_size for n in names)
    assert counter.bytes_read <= header_and_index + column_bytes


_kinds = st.sampled_from(["int64", "float64", "string"])


@st.composite
def random_blocks(draw):
    n_attrs = draw(st.integers(1, 5))
    attrs = []
    for i in range(n_attrs):
        kind = draw(_kinds)
        width = draw(st.integers(1, 12)) if kind == "string" else 0
        attrs.append((f"col{i}", kind, width) if kind == "string" else (f"col{i}", kind))
    schema = Schema.of(*attrs)
    rows = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**31))
    return make_block(schema, rows, seed=seed, block_id=draw(st.integers(0, 1000)))


@given(random_blocks())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(tmp_path_factory, block):
    path = tmp_path_factory.mktemp("rt") / "blk"
    write_block(block, path)
    assert blocks_equal(block, read_block(path))


# -- the positional read path ----------------------------------------------------


def _header_length(schema: Schema, index_entries: int = 0, key_size: int = 0, perm: bool = False) -> int:
    """Header bytes by the documented layout: what a reader must be charged."""
    length = 24 + sum(2 + len(a.name.encode()) + 17 for a in schema.attributes) + 1
    if index_entries:
        length += 14 + index_entries * (key_size + 8)
    return length + 1 + (8 if perm else 0)


def test_header_longer_than_the_probe(tmp_path):
    long_name = "k" * 3000
    schema = Schema.of((long_name, "int64"), ("v", "string", 5), ("w", "float64"))
    block = make_block(schema, rows=700, seed=4)
    indexed, perm, _ = build_index(block, long_name, page_size_records=2)  # 350 entries
    indexed.permutation = perm
    path = tmp_path / "blk"
    write_block(indexed, path)
    expected_length = _header_length(schema, 350, 8, perm=True)
    assert expected_length > 2 * 4096

    counter = ReadCounter()
    with open(path, "rb", buffering=0) as f:
        header = read_header(f, counter)
        assert counter.bytes_read == expected_length
        assert read_permutation(f, header).tolist() == perm.tolist()
    assert header.schema == schema
    assert header.record_count == 700
    assert header.perm_count == 700
    assert header.index.entry_count == 350
    assert np.array_equal(header.index.first_keys, indexed.index.first_keys)
    assert np.array_equal(header.index.start_records, indexed.index.start_records)
    assert header.column_offsets[long_name] == expected_length + 8 * 700
    again = read_block(path)
    assert blocks_equal(indexed, again)
    assert np.array_equal(again.permutation, perm)


def _truncations(path, data, offsets):
    for cut in offsets:
        path.write_bytes(data[:cut])
        yield cut


@pytest.mark.parametrize("long_header,indexed", [(False, True), (True, True), (False, False)])
def test_truncated_file_raises_block_format_error(tmp_path, long_header, indexed):
    name = "k" * 5000 if long_header else "k"
    schema = Schema.of((name, "int64"), ("v", "string", 3))
    block = make_block(schema, rows=40, seed=2)
    if indexed:
        block, perm, _ = build_index(block, name, page_size_records=8)
        block.permutation = perm
    full = tmp_path / "full"
    size = write_block(block, full)
    data = full.read_bytes()
    header_end = _header_length(schema, 5 if indexed else 0, 8, perm=indexed)
    if long_header:  # every offset near the probe's end, a stride elsewhere
        offsets = sorted(set(range(0, size, 53)) | set(range(4000, 4200)) | {header_end - 1})
    else:
        offsets = range(size)

    cut_file = tmp_path / "cut"
    for cut in _truncations(cut_file, data, offsets):
        if cut < header_end:
            with open(cut_file, "rb", buffering=0) as f, pytest.raises(BlockFormatError):
                read_header(f)
        with pytest.raises(BlockFormatError):
            read_block(cut_file)
    # Inside one column's range: the range read itself raises.
    column_start = header_end + (8 * 40 if indexed else 0)  # after the permutation vector
    for cut in _truncations(cut_file, data, range(column_start, column_start + 8 * 40, 7)):
        with open(cut_file, "rb", buffering=0) as f:
            header = read_header(f)
            intact = read_column_range(f, header, name, 0, (cut - column_start) // 8)
            assert np.array_equal(intact, block.columns[name][: len(intact)])
            with pytest.raises(BlockFormatError):
                read_column_range(f, header, name, 0, 40)


# One indexed attribute "k": the version is at byte 4, k's type tag after the
# 24-byte prefix and its 2-byte length and 1-byte name, and the index's
# attribute ordinal after the 20-byte attribute table and the index flag.
@pytest.mark.parametrize(
    "offset, value, message",
    [
        (4, struct.pack("<H", 2), "unsupported format version 2"),
        (24 + 2 + 1, bytes([9]), "unknown type tag 9 for attribute 'k'"),
        (24 + 20 + 1, struct.pack("<H", 1), "index attribute ordinal 1 out of range"),
    ],
    ids=["format_version", "type_tag", "index_ordinal"],
)
def test_a_header_field_the_format_does_not_define_is_refused(tmp_path, offset, value, message):
    block, _, _ = build_index(make_block(Schema.of(("k", "int64")), rows=16), "k", 8)
    path = tmp_path / "blk"
    write_block(block, path)
    data = bytearray(path.read_bytes())
    data[offset : offset + len(value)] = value
    path.write_bytes(data)
    with open(path, "rb", buffering=0) as f, pytest.raises(BlockFormatError, match=message):
        read_header(f)
    with pytest.raises(BlockFormatError, match=message):
        read_block(path)


def test_read_permutation_refuses_a_header_without_a_vector_and_a_cut_vector(tmp_path):
    # A cut file fails on its first column read, before its vector is read,
    # so the vector is read here on its own.
    block, perm, _ = build_index(make_block(Schema.of(("k", "int64")), rows=40), "k", 8)
    plain = tmp_path / "plain"
    write_block(block, plain)
    with open(plain, "rb", buffering=0) as f, pytest.raises(
        BlockFormatError, match="no permutation-vector section"
    ):
        read_permutation(f, read_header(f))
    block.permutation = perm
    cut = tmp_path / "cut"
    write_block(block, cut)
    with open(cut, "rb", buffering=0) as f:
        os.truncate(cut, read_header(f).perm_offset + 8 * 10 + 3)
        header = read_header(f)  # the header itself is whole
        counter = ReadCounter()
        with pytest.raises(BlockFormatError, match="truncated block file: wanted 320 bytes"):
            read_permutation(f, header, counter)
    assert counter.bytes_read == 0


# Name lengths that put the header's last byte, the perm_present flag, at
# offsets 4095-4097: just inside, just past and one past the 4 KiB probe.
@pytest.mark.parametrize(
    "name_len,indexed",
    [(n, False) for n in (4051, 4052, 4053)] + [(n, True) for n in (4021, 4022, 4023)],
)
def test_section_flag_at_the_probe_end(tmp_path, name_len, indexed):
    name = "k" * name_len
    schema = Schema.of((name, "int64"))
    block = make_block(schema, rows=8, seed=5)
    if indexed:
        block, _, _ = build_index(block, name, page_size_records=8)
    path = tmp_path / "blk"
    write_block(block, path)
    header_end = _header_length(schema, 1 if indexed else 0, 8)
    assert header_end - 1 - 4096 in (-1, 0, 1)

    counter = ReadCounter()
    with open(path, "rb", buffering=0) as f:
        header = read_header(f, counter)
    assert counter.bytes_read == header_end
    assert header.schema == schema and not header.has_permutation_vector
    assert (header.index is not None) == indexed
    assert blocks_equal(block, read_block(path))

    cut_file = tmp_path / "cut"
    for _ in _truncations(cut_file, path.read_bytes(), range(header_end - 3, header_end)):
        with open(cut_file, "rb", buffering=0) as f, pytest.raises(BlockFormatError):
            read_header(f)


def test_column_ranges_are_writable_and_unshared(tmp_path, simple_schema):
    path = tmp_path / "blk"
    write_block(make_block(simple_schema, rows=300, seed=8), path)
    with open(path, "rb", buffering=0) as f:
        header = read_header(f)
        arrays = [read_column_range(f, header, n, 10, 200) for n in simple_schema.names]
        arrays += [read_column_range(f, header, "a", 10, 200), read_column_range(f, header, "a", 0, 0)]
    for i, a in enumerate(arrays):
        assert a.flags.writeable and a.flags.owndata
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    before = arrays[5].copy()
    arrays[0][:] = 0
    assert np.array_equal(arrays[5], before)


@pytest.mark.parametrize("low,high", [(300, 1000), (512, 513), (5, 4000)])
def test_index_scan_charges_header_boundary_pages_and_rows(tmp_path, low, high):
    # Sort column 0..rows-1 with pages of 256 rows: the range [low, high]
    # touches the page before `low`'s first row and the page holding `high`.
    rows, page = 4096, 256
    schema = Schema.of(("a", "int64"), ("s", "string", 12), ("d", "int64"), ("e", "float64"))
    block = make_block(schema, rows, seed=1)
    block.columns["d"] = np.random.default_rng(3).permutation(rows).astype("<i8")
    indexed, _, _ = build_index(block, "d", page_size_records=page)
    path = tmp_path / "blk"
    write_block(indexed, path)

    registry = ReplicaRegistry(schema, replication_factor=1)
    info = BlockReplicaInfo(0, ReplicaKind.NORMAL, "d", frozenset(schema.names), str(path))
    registry.add_block(0, rows, [info])
    ctx = TaskContext(registry, {0: make_indexer(0, tmp_path, registry)}, frozenset())
    job = JobSpec("scan", Predicate("d", low, high), ("s", "e"), collect_output=False)
    result = record_reader_scan(InputSplit(0, (BlockRef(0, info),), ScanKind.INDEX_SCAN), job, ctx)

    qualifying = high - low + 1
    assert result.records_read == qualifying
    expected = (
        _header_length(schema, rows // page, 8)
        + 2 * page * 8  # the two boundary pages of the sort column
        + qualifying * (12 + 8)  # the projected rows of s and e
    )
    assert result.bytes_read == expected


def _sort_column_reads(pages, sort_projected):
    """Sort-column reads of one index scan over boundary `pages`: one window
    when the sort attribute is projected or the pages are one or adjacent,
    else one read per page."""
    if not pages:
        return 0
    return 1 if sort_projected or pages[-1] - pages[0] <= 1 else len(pages)


def test_index_scans_keep_their_read_budget_on_an_upload_indexed_cluster(tmp_path, monkeypatch):
    # Per indexed block: the sort column's boundary pages, in one read when
    # the sort attribute is projected or the pages are one or adjacent, and
    # one range per other projected column, every range through
    # `execution.read_column_range` (the name the benchmark's tracer
    # wraps). Billed by the format's layout and the record reader's model,
    # header, both boundary pages and projected ranges, on every job.
    # The first job opens each replica and reads its header with one
    # `pread`; later jobs find both in the cluster's open replicas and
    # open, `pread` and close nothing.
    rows, page, projection = 500, 64, ("b", "c")
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=rows, page_size=page)
    cluster.upload_dataset(gen_synthetic(8 * rows, seed=21), ["b"])
    replicas = {}
    for block_id in cluster.registry.block_ids:
        info = cluster.registry.find_index(block_id, "b")
        assert info.kind == ReplicaKind.NORMAL
        replicas[block_id] = read_block(info.path)

    def budget(lo, hi, first):
        """Expected (call counts, bytes) of one job over every block."""
        calls, billed = collections.Counter(), 0
        for block in replicas.values():
            keys, column = block.index.first_keys, block.columns["b"]
            bounds = [*block.index.start_records.tolist(), len(column)]
            q = int(np.searchsorted(keys, lo, "left"))
            p = int(np.searchsorted(keys, hi, "right")) - 1
            pages = ([q - 1] if q > 0 else []) + ([p] if p >= 0 else [])
            span = int(np.searchsorted(column, hi, "right") - np.searchsorted(column, lo, "left"))
            calls["open"] += first
            calls["pread"] += first
            sort_reads = _sort_column_reads(pages, "b" in projection)
            others = [n for n in projection if n != "b"]
            calls["read_column_range"] += sort_reads + len(others)
            calls["preadv"] += sort_reads + (len(others) if span else 0)
            billed += _header_length(SYNTHETIC_SCHEMA, block.index.entry_count, 8)
            billed += sum(bounds[p + 1] - bounds[p] for p in pages) * 8
            billed += span * sum(block.schema.attribute(n).item_size for n in projection)
        return +calls, billed

    seen = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("open", "close", "pread", "preadv"):
        monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
    monkeypatch.setattr(
        execution, "read_column_range", counted("read_column_range", read_column_range)
    )
    runner = WorkloadRunner(cluster)
    for job_id, lo in (("first", 0.3), ("again", 0.3), ("other_range", 0.61)):
        seen.clear()
        job = JobSpec(job_id, Predicate("b", lo, lo + 0.05), projection, collect_output=False)
        metrics = runner.run_job(job).metrics
        calls, billed = budget(lo, lo + 0.05, first=job_id == "first")
        assert metrics.full_scan_tasks == 0 and not metrics.failed
        assert seen == calls, job_id
        assert metrics.bytes_read == billed, job_id
    assert len(cluster.open_replicas._entries) == len(replicas)
    cluster.close()


def test_partial_replicas_keep_their_read_budget_on_a_lazy_cluster(tmp_path, monkeypatch):
    # A partial replica is served from the boundary pages and projected
    # ranges it holds, the sort column's in one read as it is projected,
    # then one `preadv` for its permutation and one
    # full-column `preadv` per missing attribute of the normal replica,
    # billed by the format's layout, both headers included. A header is
    # parsed, with one `pread`, only when its replica is not open yet. Only
    # the map thread's reads are counted: completions rewrite replicas on
    # the pool threads meanwhile.
    rows, page, lo, hi = 500, 64, 0.3, 0.35
    cluster = make_cluster(
        tmp_path / "c", nodes=3, replication=2, block_records=rows, page_size=page,
        projection_mode="lazy",
    )
    dataset = gen_synthetic(8 * rows, seed=21)
    cluster.upload_dataset(dataset)
    runner = WorkloadRunner(cluster)
    build = JobSpec("build", Predicate("b", lo, hi), ("b", "c"), policy=OfferPolicy(rho=1.0))
    assert not runner.run_job(build).metrics.failed

    def budget(projection):
        """Expected (map-thread reads but header `pread`s, bytes) of one job."""
        calls, billed = collections.Counter(), 0
        for block_id in cluster.registry.block_ids:
            replica = read_block(cluster.registry.find_index(block_id, "b").path)
            keys, column = replica.index.first_keys, replica.columns["b"]
            bounds = [*replica.index.start_records.tolist(), len(column)]
            q = int(np.searchsorted(keys, lo, "left"))
            p = int(np.searchsorted(keys, hi, "right")) - 1
            pages = ([q - 1] if q > 0 else []) + ([p] if p >= 0 else [])
            span = int(np.searchsorted(column, hi, "right") - np.searchsorted(column, lo, "left"))
            held = [n for n in projection if n in replica.schema]
            missing = [n for n in projection if n not in replica.schema]
            sort_reads = _sort_column_reads(pages, "b" in projection)
            calls["read_column_range"] += sort_reads + len(projection) - 1
            calls["preadv"] += sort_reads + (len(held) - 1 if span else 0)
            billed += _header_length(
                replica.schema, replica.index.entry_count, 8, perm=replica.permutation is not None
            )
            billed += sum(bounds[p + 1] - bounds[p] for p in pages) * 8
            billed += span * 8 * len(held)
            if missing:
                calls["preadv"] += 1 + len(missing)
                billed += _header_length(SYNTHETIC_SCHEMA)  # the normal replica's
                billed += len(column) * 8 * (1 + len(missing))  # permutation, missing columns
        return calls, billed

    seen = collections.Counter()
    map_thread = threading.get_ident()

    def counted(name, fn):
        def call(*args, **kwargs):
            if threading.get_ident() == map_thread:
                seen[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(os, "pread", counted("pread", os.pread))
    monkeypatch.setattr(os, "preadv", counted("preadv", os.preadv))
    monkeypatch.setattr(blockfile, "_parse_header", counted("parse", blockfile._parse_header))
    monkeypatch.setattr(
        execution, "read_column_range", counted("read_column_range", read_column_range)
    )
    blocks = cluster.registry.block_count
    column = dataset.columns["b"]
    de = ("b", "c", "d", "e")
    # Job "d" parses both headers of every block, the partial and the
    # normal replica's. Its completions add d to every partial replica, and
    # each scan that hands one off closes its replica, so job "de" parses
    # each partial header again but finds every normal replica open. Its
    # completions add e, so the next "de" reopens each partial replica and
    # reads e from it, missing nothing; the one after it parses nothing.
    for job_id, projection, parses in (
        ("d", ("b", "c", "d"), 2 * blocks),
        ("de", de, blocks),
        ("de_completed", de, blocks),
        ("de_again", de, 0),
    ):
        calls, billed = budget(projection)
        calls["pread"] = parses  # each header fits the probe
        seen.clear()
        job = JobSpec(job_id, Predicate("b", lo, hi), projection, collect_output=False)
        metrics = runner.run_job(job).metrics
        assert metrics.full_scan_tasks == 0 and not metrics.failed
        assert metrics.records_emitted == int(((column >= lo) & (column <= hi)).sum())
        assert seen.pop("parse", 0) == parses, job_id
        assert seen == +calls, job_id
        assert metrics.bytes_read == billed, job_id
    cluster.close()


def test_parsed_headers_carry_column_dtypes_and_page_starts(tmp_path, simple_schema):
    block = make_block(simple_schema, rows=300, seed=8)
    indexed, _, _ = build_index(block, "b", page_size_records=64)
    write_block(indexed, tmp_path / "indexed")
    write_block(block, tmp_path / "plain")
    dtypes = {a.name: a.dtype for a in simple_schema.attributes}
    page_keys = tuple(indexed.columns["b"][s] for s in (0, 64, 128, 192, 256))
    for name, page_starts, keys in (
        ("indexed", (0, 64, 128, 192, 256, 300), page_keys), ("plain", (), ())
    ):
        with open(tmp_path / name, "rb", buffering=0) as f:
            for header in (read_header(f), OpenReplicas().open(f.name)[1]):
                assert header.page_starts == page_starts
                assert all(type(s) is int for s in header.page_starts)
                assert header.page_keys == keys
                assert all(type(k) is float for k in header.page_keys)
                assert dict(header.column_dtypes) == dtypes
                with pytest.raises(TypeError):
                    header.column_dtypes["a"] = np.dtype("<f8")
                with pytest.raises(SchemaError):
                    read_column_range(f, header, "nope", 0, 10)

    # Page keys are Python values of the key's kind; float keys stop before
    # the first NaN page, as NaN sorts after every bound.
    schema = Schema.of(("i", "int64"), ("f", "float64"), ("s", "string", 3))
    floats = np.array([0.5, np.nan, 0.25, 1.0, np.nan, 0.75, np.nan, 0.0, 2.0, np.nan])
    block = DataBlock(0, schema, {
        "i": np.arange(10, dtype="<i8")[::-1].copy(),
        "f": floats,
        "s": np.array([b"b", b"ab", b"a", b"c", b"ab", b"b", b"abc", b"a", b"c", b"b"], "S3"),
    })
    for attr, kind, keys in (
        ("i", int, (0, 3, 6, 9)),
        ("f", float, (0.0, 0.75)),  # sorted: 0, .25, .5, .75, 1, 2, then 4 NaNs
        ("s", bytes, (b"a", b"ab", b"b", b"c")),
    ):
        path = tmp_path / f"keys_{attr}"
        write_block(build_index(block, attr, 3)[0], path)
        header = blockfile.check_block_file(path)
        assert header.page_keys == keys
        assert all(type(k) is kind for k in header.page_keys)


@given(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
    st.sampled_from("abcdefghz"),
)
@settings(max_examples=60, deadline=None)
def test_schema_lookups_match_a_positional_scan(names, probe):
    schema = Schema.of(*[(n, "int64") for n in names])
    reference = [i for i, a in enumerate(schema.attributes) if a.name == probe]
    assert (probe in schema) == bool(reference)
    if reference:
        assert schema.ordinal(probe) == reference[0]
        assert schema.attribute(probe) is schema.attributes[reference[0]]
    else:
        for lookup in (schema.ordinal, schema.attribute):
            with pytest.raises(SchemaError):
                lookup(probe)
    again = Schema.from_json(schema.to_json())  # no lookup made on it yet
    assert again == schema and hash(again) == hash(schema)
    with pytest.raises(SchemaError):
        Schema.of(*[(n, "int64") for n in names + names[:1]])


@pytest.mark.parametrize("name", ["", "../x", "a/b", "a\0b", ".", "..", ".b.tmp", ".hidden"])
def test_an_attribute_name_must_be_a_plain_file_name(name):
    # Pseudo replicas are stored at pseudo/blk_<id>/<attribute>.
    with pytest.raises(SchemaError, match="not a valid file name"):
        Schema.of(("a", "int64"), (name, "int64"))
    with pytest.raises(SchemaError, match="not a valid file name"):
        Schema.from_json([{"name": name, "kind": "float64"}])


@pytest.mark.parametrize(
    "specs, message",
    [
        ([("a", "int32")], "unknown attribute kind 'int32'"),
        ([("a", "int64"), ("s", "string", 0)], "string attribute 's' needs width > 0"),
        ([], "schema must have at least one attribute"),
    ],
    ids=["unknown_kind", "zero_width_string", "no_attributes"],
)
def test_a_schema_the_format_cannot_hold_is_refused(specs, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        Schema.of(*specs)


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


def test_open_replicas_reopen_a_replica_renamed_over_its_path_once_dropped(tmp_path, simple_schema):
    # A lazy completion writes the wider replica beside the old one and
    # renames it over the path. The table serves the file it opened until
    # the path is dropped, as the index scan that hands off the completion
    # does; then it opens the new file.
    block = make_block(simple_schema, rows=300, seed=8)
    partial, perm, _ = build_index(
        DataBlock(0, simple_schema.subset(("a", "b")), {n: block.columns[n] for n in ("a", "b")}),
        "b",
        page_size_records=64,
    )
    partial.permutation = perm
    path = str(tmp_path / "b")
    write_block(partial, path)
    table = OpenReplicas()
    fd, header = table.open(path)
    assert header.schema.names == ("a", "b")
    assert table.open(path) == (fd, header)

    wider = dataclasses.replace(
        partial,
        schema=simple_schema.subset(("a", "b", "d")),
        columns={**partial.columns, "d": block.columns["d"][perm]},
    )
    write_block(wider, tmp_path / ".b.tmp")
    os.replace(tmp_path / ".b.tmp", path)
    assert table.open(path)[1] is header  # not dropped yet: the file it opened
    table.drop(path)
    with pytest.raises(OSError):
        os.fstat(fd)  # closed
    fd, header = table.open(path)
    parsed = read_header(fd)
    assert header.schema.names == ("a", "b", "d")
    assert header.column_offsets == parsed.column_offsets
    assert header.perm_offset == parsed.perm_offset
    np.testing.assert_array_equal(
        read_column_range(fd, header, "d", 0, 300), wider.columns["d"]
    )
    table.drop(path)
    table.drop(path)  # a path without an entry is ignored
    assert len(table._entries) == 0


@needs_proc
def test_open_replicas_raise_for_a_file_truncated_inside_its_header_and_keep_nothing(
    tmp_path, simple_schema
):
    block, _, _ = build_index(make_block(simple_schema, rows=300, seed=8), "b", page_size_records=64)
    path = tmp_path / "blk"
    write_block(block, path)
    data = path.read_bytes()
    header_end = _header_length(simple_schema, 5, 8)
    table = OpenReplicas()
    before = _open_descriptors()
    for cut in (0, 1, header_end // 2, header_end - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(BlockFormatError):
            table.open(str(path))
        assert len(table._entries) == 0
        assert _open_descriptors() == before
    with pytest.raises(FileNotFoundError):
        table.open(str(tmp_path / "gone"))
    path.write_bytes(data)
    table.open(str(path))
    assert len(table._entries) == 1 and _open_descriptors() == before + 1
    table.close()
    assert len(table._entries) == 0 and _open_descriptors() == before


@pytest.mark.parametrize("name", ["k", "k" * 5000], ids=["short", "longer_than_the_probe"])
def test_open_replicas_charge_a_hit_like_a_miss(tmp_path, name, monkeypatch):
    schema = Schema.of((name, "int64"), ("v", "string", 3))
    block, perm, _ = build_index(make_block(schema, rows=40, seed=2), name, page_size_records=8)
    block.permutation = perm
    path = str(tmp_path / "blk")
    write_block(block, path)
    table = OpenReplicas()
    miss, hit = ReadCounter(), ReadCounter()
    fd, first = table.open(path, miss)
    preads = []
    monkeypatch.setattr(os, "pread", lambda *args: preads.append(args))
    assert table.open(path, hit) == (fd, first)
    assert table.open(path) == (fd, first)  # no counter, no charge
    assert preads == []  # a hit reads nothing
    assert miss.bytes_read == hit.bytes_read == _header_length(schema, 5, 8, perm=True)
    table.close()


def test_open_replicas_are_sized_below_the_descriptor_limit(monkeypatch):
    import resource

    for soft, capacity in (
        (1024, 512), (20_000, blockfile.MAX_OPEN_REPLICAS), (resource.RLIM_INFINITY, 4096), (1, 1)
    ):
        monkeypatch.setattr(resource, "getrlimit", lambda _, soft=soft: (soft, soft))
        assert OpenReplicas().capacity == capacity


@needs_proc
def test_a_full_table_closes_its_oldest_replica(tmp_path, simple_schema, monkeypatch):
    monkeypatch.setattr(blockfile, "MAX_OPEN_REPLICAS", 3)
    paths = []
    for block_id in range(5):
        paths.append(str(tmp_path / f"blk_{block_id}"))
        write_block(make_block(simple_schema, rows=20, seed=block_id, block_id=block_id), paths[-1])
    table = OpenReplicas()
    assert table.capacity == 3
    before = _open_descriptors()
    for path in paths + paths[::-1]:
        header = table.open(path)[1]
        assert header.block_id == int(path.rsplit("_", 1)[1])
        assert len(table._entries) <= 3 and _open_descriptors() <= before + 3
    assert len(table._entries) == 3
    table.close()
    assert _open_descriptors() == before


def test_headers_are_read_only(tmp_path, simple_schema):
    block, _, _ = build_index(make_block(simple_schema, rows=300, seed=8), "b", page_size_records=64)
    path = tmp_path / "blk"
    write_block(block, path)
    with open(path, "rb", buffering=0) as f:
        for header in (read_header(f), OpenReplicas().open(f.name)[1]):
            with pytest.raises(dataclasses.FrozenInstanceError):
                header.record_count = 0
            for array in (header.index.first_keys, header.index.start_records):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1
