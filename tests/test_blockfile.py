import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adaptidx.blocks import DataBlock, Schema, blocks_equal
from adaptidx.blockfile import (
    ReadCounter,
    pseudo_replica_path,
    publish_block_once,
    read_block,
    read_column_range,
    read_header,
    write_block,
)
from adaptidx.errors import BlockFormatError, SchemaError
from adaptidx.indexer import build_index
from adaptidx.workloads import USERVISITS_SCHEMA, gen_uservisits_like

from conftest import make_block


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


def test_pseudo_replica_path_convention(tmp_path):
    p = pseudo_replica_path(tmp_path, 42, "d")
    assert str(p).endswith("pseudo/blk_42/d")
    assert pseudo_replica_path(tmp_path, 42, "d") == p
    assert pseudo_replica_path(tmp_path, 42, "e") != p
    assert pseudo_replica_path(tmp_path, 43, "d") != p


def test_publish_block_once_loser_cleans_up(tmp_path, simple_schema):
    block = make_block(simple_schema, rows=20)
    final = tmp_path / "target"
    assert publish_block_once(block, final, tmp_path / ".t1") is True
    assert publish_block_once(block, final, tmp_path / ".t2") is False
    assert final.exists()
    assert not (tmp_path / ".t1").exists()
    assert not (tmp_path / ".t2").exists()


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
