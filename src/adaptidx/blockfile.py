"""Binary block-file format and byte-accounted readers.

File layout, all little-endian:

    [magic "ADXB"][version u16][block_id u64][record_count u64]
    [attr_count u16]
    per attribute: [name_len u16][name][type_tag u8][col_offset u64][col_len u64]
    [index_present u8]
    if present: [indexed_attr ordinal u16][page_size_records u32][entry_count u64]
                [entries: key bytes + start_record u64, interleaved]
    [perm_present u8]
    if present: [perm_count u64][perm u64 x perm_count]
    [columnar data: one contiguous run per attribute, in header order]

Column offsets are absolute file offsets, so projected reads seek straight to
the needed columns and never touch the rest. Every read helper takes an
optional ReadCounter; tests use it to verify projection isolation.

A block file is write-once: publication goes through a temp file in the same
directory followed by a hard link, so concurrent writers of the same path
cannot clobber each other (at most one link succeeds).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Optional

import numpy as np

from .blocks import DataBlock, Schema, Attribute, SparseClusteredIndex, INT64, FLOAT64, STRING
from .errors import BlockFormatError, SchemaError

MAGIC = b"ADXB"
FORMAT_VERSION = 1

_TAG_BY_KIND = {INT64: 1, FLOAT64: 2, STRING: 3}
_KIND_BY_TAG = {v: k for k, v in _TAG_BY_KIND.items()}

_PREFIX = struct.Struct("<4sHQQH")
_ATTR_FIXED = struct.Struct("<BQQ")
_INDEX_HEAD = struct.Struct("<HIQ")


@dataclass
class ReadCounter:
    """Accumulates bytes pulled from storage."""

    bytes_read: int = 0

    def add(self, n: int) -> None:
        self.bytes_read += n


def _read_exact(f: BinaryIO, n: int, counter: Optional[ReadCounter]) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise BlockFormatError(f"truncated block file: wanted {n} bytes, got {len(data)}")
    if counter is not None:
        counter.add(n)
    return data


@dataclass
class BlockFileHeader:
    block_id: int
    record_count: int
    schema: Schema
    column_offsets: dict[str, int]
    column_lengths: dict[str, int]
    index: Optional[SparseClusteredIndex]
    perm_count: int
    perm_offset: int  # 0 when absent

    @property
    def sort_attribute(self) -> Optional[str]:
        return self.index.attribute if self.index is not None else None

    @property
    def has_permutation_vector(self) -> bool:
        return self.perm_offset > 0


def _entry_dtype(attr: Attribute) -> np.dtype:
    return np.dtype([("key", attr.dtype), ("start", "<u8")])


def write_block(block: DataBlock, path: Path | str) -> int:
    """Serialize a block to `path`; returns the byte count written."""
    block.validate()
    schema = block.schema
    n_attrs = len(schema.attributes)

    attr_table_len = sum(
        2 + len(a.name.encode("utf-8")) + _ATTR_FIXED.size for a in schema.attributes
    )
    index_len = 1
    if block.index is not None:
        key_size = schema.attribute(block.index.attribute).item_size
        index_len += _INDEX_HEAD.size + block.index.entry_count * (key_size + 8)
    perm_len = 1 + (8 + 8 * block.record_count if block.permutation is not None else 0)
    header_len = _PREFIX.size + attr_table_len + index_len + perm_len

    parts = [_PREFIX.pack(MAGIC, FORMAT_VERSION, block.block_id, block.record_count, n_attrs)]
    offset = header_len
    for a in schema.attributes:
        name = a.name.encode("utf-8")
        col_len = block.record_count * a.item_size
        parts.append(struct.pack("<H", len(name)))
        parts.append(name)
        parts.append(_ATTR_FIXED.pack(_TAG_BY_KIND[a.kind], offset, col_len))
        offset += col_len

    if block.index is not None:
        idx = block.index
        attr = schema.attribute(idx.attribute)
        parts.append(b"\x01")
        parts.append(_INDEX_HEAD.pack(schema.ordinal(idx.attribute), idx.page_size_records, idx.entry_count))
        entries = np.empty(idx.entry_count, dtype=_entry_dtype(attr))
        entries["key"] = idx.first_keys
        entries["start"] = idx.start_records
        parts.append(entries.tobytes())
    else:
        parts.append(b"\x00")

    if block.permutation is not None:
        parts.append(b"\x01")
        parts.append(struct.pack("<Q", block.record_count))
        parts.append(block.permutation.astype("<u8", copy=False).tobytes())
    else:
        parts.append(b"\x00")

    for a in schema.attributes:
        parts.append(np.ascontiguousarray(block.columns[a.name], dtype=a.dtype).tobytes())

    payload = b"".join(parts)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(payload)
    return len(payload)


def read_header(f: BinaryIO, counter: Optional[ReadCounter] = None) -> BlockFileHeader:
    raw = _read_exact(f, _PREFIX.size, counter)
    magic, version, block_id, record_count, n_attrs = _PREFIX.unpack(raw)
    if magic != MAGIC:
        raise BlockFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise BlockFormatError(f"unsupported format version {version}")

    attrs: list[Attribute] = []
    offsets: dict[str, int] = {}
    lengths: dict[str, int] = {}
    for _ in range(n_attrs):
        (name_len,) = struct.unpack("<H", _read_exact(f, 2, counter))
        name = _read_exact(f, name_len, counter).decode("utf-8")
        tag, col_offset, col_len = _ATTR_FIXED.unpack(_read_exact(f, _ATTR_FIXED.size, counter))
        if tag not in _KIND_BY_TAG:
            raise BlockFormatError(f"unknown type tag {tag} for attribute {name!r}")
        kind = _KIND_BY_TAG[tag]
        # Fixed-string width is recovered from the column extent; an empty
        # block cannot carry it, so the width reads back as 0 there.
        width = col_len // record_count if (kind == STRING and record_count) else 0
        if kind == STRING and width == 0:
            width = 1
        attrs.append(Attribute(name, kind, width))
        offsets[name] = col_offset
        lengths[name] = col_len
    schema = Schema(tuple(attrs))

    index: Optional[SparseClusteredIndex] = None
    (index_present,) = _read_exact(f, 1, counter)
    if index_present:
        ordinal, page_size, entry_count = _INDEX_HEAD.unpack(
            _read_exact(f, _INDEX_HEAD.size, counter)
        )
        attr = schema.attributes[ordinal]
        dt = _entry_dtype(attr)
        raw_entries = _read_exact(f, entry_count * dt.itemsize, counter)
        entries = np.frombuffer(raw_entries, dtype=dt)
        index = SparseClusteredIndex(
            attribute=attr.name,
            page_size_records=page_size,
            first_keys=entries["key"].copy(),
            start_records=entries["start"].copy(),
            record_count=record_count,
        )

    (perm_present,) = _read_exact(f, 1, counter)
    perm_count = 0
    perm_offset = 0
    if perm_present:
        (perm_count,) = struct.unpack("<Q", _read_exact(f, 8, counter))
        perm_offset = f.tell()
        f.seek(8 * perm_count, os.SEEK_CUR)

    return BlockFileHeader(
        block_id=block_id,
        record_count=record_count,
        schema=schema,
        column_offsets=offsets,
        column_lengths=lengths,
        index=index,
        perm_count=perm_count,
        perm_offset=perm_offset,
    )


def read_permutation(
    f: BinaryIO, header: BlockFileHeader, counter: Optional[ReadCounter] = None
) -> np.ndarray:
    if not header.has_permutation_vector:
        raise BlockFormatError("block file has no permutation-vector section")
    f.seek(header.perm_offset)
    raw = _read_exact(f, 8 * header.perm_count, counter)
    return np.frombuffer(raw, dtype="<u8").copy()


def read_column_range(
    f: BinaryIO,
    header: BlockFileHeader,
    name: str,
    start: int,
    stop: int,
    counter: Optional[ReadCounter] = None,
) -> np.ndarray:
    """Read rows [start, stop) of one column; only those bytes are fetched."""
    attr = header.schema.attribute(name)
    start = max(0, start)
    stop = min(stop, header.record_count)
    if stop <= start:
        return np.empty(0, dtype=attr.dtype)
    f.seek(header.column_offsets[name] + start * attr.item_size)
    raw = _read_exact(f, (stop - start) * attr.item_size, counter)
    return np.frombuffer(raw, dtype=attr.dtype).copy()


def read_block(
    path: Path | str,
    projection: Optional[Iterable[str]] = None,
    counter: Optional[ReadCounter] = None,
) -> DataBlock:
    """Read a block, restricted to `projection` columns.

    Unprojected columns are never fetched.
    """
    with open(path, "rb") as f:
        header = read_header(f, counter)
        names = header.schema.names if projection is None else tuple(projection)
        for name in names:
            if name not in header.schema:
                raise SchemaError(f"unknown attribute {name!r} in projection")
        sub = header.schema.subset(names)

        columns = {
            a.name: read_column_range(f, header, a.name, 0, header.record_count, counter)
            for a in sub.attributes
        }

        sort_attr = header.sort_attribute if header.sort_attribute in sub.names else None
        index = None
        if sort_attr is not None:
            index = header.index
        perm = None
        if header.has_permutation_vector:
            perm = read_permutation(f, header, counter)

        return DataBlock(
            block_id=header.block_id,
            schema=sub,
            columns=columns,
            sort_attribute=sort_attr,
            index=index,
            permutation=perm,
        )


def pseudo_replica_path(node_root: Path | str, block_id: int, attribute: str) -> Path:
    """Deterministic pseudo-replica location: <node>/pseudo/blk_<id>/<attr>."""
    return Path(node_root) / "pseudo" / f"blk_{block_id}" / attribute


def pseudo_temp_path(node_root: Path | str, block_id: int, attribute: str, nonce: str) -> Path:
    return Path(node_root) / "pseudo" / f"blk_{block_id}" / f".{attribute}.tmp.{nonce}"


def publish_block_once(block: DataBlock, final_path: Path, temp_path: Path) -> bool:
    """Write-once publish: write a temp file, hard-link it to the target.

    Returns True when this call created the target, False when another writer
    got there first. The temp file is removed either way, including when the
    temp write itself fails partway.
    """
    try:
        write_block(block, temp_path)
        os.link(temp_path, final_path)
        return True
    except FileExistsError:
        return False
    finally:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
