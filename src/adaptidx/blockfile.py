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

Column offsets are absolute file offsets, so projected reads go straight to
the needed columns and never touch the rest. Readers use positional reads
only, never the file position: `read_header` parses the header from one
`os.pread` of the first 4 KiB (extended only for longer headers), and column
ranges and the permutation vector are read with one `os.preadv` straight
into a fresh array. Every reader takes a raw descriptor from
`os.open(path, os.O_RDONLY)`, which is what the engine passes (`read_block`
opens its file that way too), or a binary file object, whose descriptor it
uses; a file object's buffer would only be bypassed.

An OpenReplicas table keeps replica files open across jobs, each with its
parsed header: a miss opens the file and parses the header, a hit does
neither. It trusts a file not to change under a path that has an entry,
which holds because one Cluster owns the cluster directory (see
`execution` and the lock in `cluster`). A parsed header also carries what a range read needs,
computed once per parse: the column dtypes (from the memoised attribute
table) and the index's page starts as Python ints, so `read_column_range`
looks up no schema and converts no numpy scalar, and does its one
`os.preadv` with no helper in between.

Every read helper takes an optional ReadCounter, charged exactly the bytes
the format needs (the header's own length, not the probe's, read or not),
which is what the simulated cost model bills; tests use it to verify
projection isolation; an index scan charges it its own model (see
`execution`). A file that ends early raises BlockFormatError from every
reader.

`write_block` creates a file with one `os.open` (making its directory only
when that fails) and hands the header and the column arrays to `os.writev`
as they are, so the columns are not copied into one payload first.

A block file is never modified in place. A new pseudo replica is created at
its final path with `O_CREAT | O_EXCL`, so of concurrent writers of the same
path exactly one succeeds. A lazy completion replaces a partial replica
whole: it writes `.<attribute>.tmp` beside it and renames that over it. What
a crash leaves of either, `Cluster._repair` clears at the next open.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Iterable, Mapping, Optional, Union

import numpy as np

from .blocks import DataBlock, Schema, Attribute, SparseClusteredIndex, INT64, FLOAT64, STRING
from .errors import BlockFormatError, SchemaError

MAGIC = b"ADXB"
FORMAT_VERSION = 1

_TAG_BY_KIND = {INT64: 1, FLOAT64: 2, STRING: 3}
_KIND_BY_TAG = {v: k for k, v in _TAG_BY_KIND.items()}

_PREFIX = struct.Struct("<4sHQQH")
_COUNTS = struct.Struct("<QH")  # the prefix's tail: record_count, attr_count
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_ATTR_FIXED = struct.Struct("<BQQ")
_INDEX_HEAD = struct.Struct("<HIQ")
_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers one os.writev call takes
_PROBE = 4096  # bytes of the first header read; covers typical headers whole

FileLike = Union[int, BinaryIO]  # a raw descriptor, or a binary file object


@dataclass
class ReadCounter:
    """Bytes billed for storage reads, which the simulated cost model charges:
    a read helper's own bytes, or an index scan's model of header, boundary
    pages and projected ranges, never less than what the scan fetches."""

    bytes_read: int = 0


@dataclass(frozen=True)
class BlockFileHeader:
    """A parsed header; read-only, because an OpenReplicas serves it to many reads.

    Besides the file's fields it carries what a range read needs, computed
    once per parse: each column's dtype, and the index's page starts as
    Python ints followed by `record_count`, so page p spans rows
    [page_starts[p], page_starts[p + 1]).
    """

    block_id: int
    record_count: int
    schema: Schema  # schema and the two mappings are shared between headers: read-only
    column_offsets: Mapping[str, int]
    column_dtypes: Mapping[str, np.dtype]
    index: Optional[SparseClusteredIndex]
    page_starts: tuple[int, ...]  # () without an index
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


def write_block(block: DataBlock, path: Path | str, exclusive: bool = False) -> int:
    """Serialize a block to `path`; returns the byte count written. An existing
    file is truncated, or with `exclusive` left alone and FileExistsError
    raised. A write that fails after the open removes the file."""
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

    buffers = [b"".join(parts)]
    for a in schema.attributes:
        column = np.ascontiguousarray(block.columns[a.name], dtype=a.dtype)
        buffers.append(memoryview(column).cast("B"))
    flags = os.O_WRONLY | os.O_CREAT | (os.O_EXCL if exclusive else os.O_TRUNC)
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:  # the first file in its directory
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        return _write_all(fd, buffers)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise
    finally:
        os.close(fd)


def _write_all(fd: int, buffers: list) -> int:
    """Write `buffers` in order with `os.writev`, resuming after a short
    write, and return the byte count."""
    views = [v for v in buffers if len(v)]
    total = sum(len(v) for v in views)
    while views:
        n = os.writev(fd, views[:_IOV_MAX])
        while n:
            if n >= len(views[0]):
                n -= len(views.pop(0))
            else:
                views[0], n = views[0][n:], 0
    return total


def _cover(fd: int, buf: bytes, end: int) -> bytes:
    """The file's leading bytes `buf`, extended to at least `end` bytes.

    Afterwards the result holds at least `end` bytes, or BlockFormatError was
    raised; `_parse_header` covers every byte before it indexes or unpacks it.
    An extension is sized from the file, so a corrupt length cannot ask for
    more than the file holds.
    """
    if end <= len(buf):
        return buf
    size = os.fstat(fd).st_size
    if end > size:
        raise BlockFormatError(f"truncated block file: header needs {end} bytes, file has {size}")
    more = os.pread(fd, min(size, max(end, 2 * len(buf))) - len(buf), len(buf))
    if len(buf) + len(more) < end:
        raise BlockFormatError(f"truncated block file: header needs {end} bytes")
    return buf + more


@functools.lru_cache(maxsize=256)
def _attribute_table(
    raw: bytes,
) -> tuple[Schema, Mapping[str, int], Mapping[str, np.dtype]]:
    """Parse [record_count][attr_count][attribute table] into read-only objects:
    the schema, and per column its offset and dtype.

    Memoised on the bytes themselves, so replicas with the same layout share
    one parse and a rewritten replica can never be served a stale one. Full
    scans and lazy completions parse every header they read, outside any
    OpenReplicas; without this memo the lazy_uservisits benchmark ran about
    6% slower.
    """
    record_count, n_attrs = _COUNTS.unpack_from(raw)
    pos = _COUNTS.size
    attrs: list[Attribute] = []
    offsets: dict[str, int] = {}
    for _ in range(n_attrs):
        (name_len,) = _U16.unpack_from(raw, pos)
        name = raw[pos + 2 : pos + 2 + name_len].decode("utf-8")
        tag, col_offset, col_len = _ATTR_FIXED.unpack_from(raw, pos + 2 + name_len)
        pos += 2 + name_len + _ATTR_FIXED.size
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
    dtypes = MappingProxyType({a.name: a.dtype for a in attrs})
    return Schema(tuple(attrs)), MappingProxyType(offsets), dtypes


def read_header(f: FileLike, counter: Optional[ReadCounter] = None) -> BlockFileHeader:
    """Parse the header at the start of `f` with one positional read.

    A single probe covers the typical header; longer ones are extended. The
    counter is charged the header's own length, not the probe's. The file
    position is not used or moved.
    """
    header, raw = _parse_header(f if type(f) is int else f.fileno())
    if counter is not None:
        counter.bytes_read += len(raw)
    return header


def _parse_header(fd: int) -> tuple[BlockFileHeader, bytes]:
    """The header at the start of `fd` and the bytes it was parsed from."""
    buf = _cover(fd, os.pread(fd, _PROBE, 0), _PREFIX.size)
    magic, version, block_id, record_count, n_attrs = _PREFIX.unpack_from(buf)
    if magic != MAGIC:
        raise BlockFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise BlockFormatError(f"unsupported format version {version}")

    pos = _PREFIX.size
    for _ in range(n_attrs):
        buf = _cover(fd, buf, pos + 2)
        (name_len,) = _U16.unpack_from(buf, pos)
        pos += 2 + name_len + _ATTR_FIXED.size
    buf = _cover(fd, buf, pos + 1)
    schema, offsets, dtypes = _attribute_table(buf[_PREFIX.size - _COUNTS.size : pos])

    index: Optional[SparseClusteredIndex] = None
    page_starts: tuple[int, ...] = ()
    index_present = buf[pos]
    pos += 1
    if index_present:
        buf = _cover(fd, buf, pos + _INDEX_HEAD.size)
        ordinal, page_size, entry_count = _INDEX_HEAD.unpack_from(buf, pos)
        pos += _INDEX_HEAD.size
        if ordinal >= len(schema.attributes):
            raise BlockFormatError(f"index attribute ordinal {ordinal} out of range")
        attr = schema.attributes[ordinal]
        dt = _entry_dtype(attr)
        buf = _cover(fd, buf, pos + entry_count * dt.itemsize)
        entries = np.frombuffer(buf, dtype=dt, count=entry_count, offset=pos)
        pos += entry_count * dt.itemsize
        first_keys = entries["key"].copy()
        start_records = entries["start"].copy()
        first_keys.setflags(write=False)
        start_records.setflags(write=False)
        index = SparseClusteredIndex(
            attribute=attr.name,
            page_size_records=page_size,
            first_keys=first_keys,
            start_records=start_records,
            record_count=record_count,
        )
        page_starts = (*start_records.tolist(), record_count)

    buf = _cover(fd, buf, pos + 1)
    perm_present = buf[pos]
    pos += 1
    perm_count = 0
    perm_offset = 0
    if perm_present:
        buf = _cover(fd, buf, pos + 8)
        (perm_count,) = _U64.unpack_from(buf, pos)
        pos += 8
        perm_offset = pos

    return BlockFileHeader(
        block_id=block_id,
        record_count=record_count,
        schema=schema,
        column_offsets=offsets,
        column_dtypes=dtypes,
        index=index,
        page_starts=page_starts,
        perm_count=perm_count,
        perm_offset=perm_offset,
    ), buf[:pos]


def check_block_file(path: Path | str) -> BlockFileHeader:
    """The header of the file at `path`; raises BlockFormatError unless the
    file also holds every column and the permutation vector the header
    places, all that `read_block` reads."""
    fd = os.open(path, os.O_RDONLY)
    try:
        header, size = read_header(fd), os.fstat(fd).st_size
    finally:
        os.close(fd)
    ends = [
        header.column_offsets[name] + header.record_count * dtype.itemsize
        for name, dtype in header.column_dtypes.items()
    ]
    ends.append(header.perm_offset + 8 * header.perm_count)  # 0 without a vector
    if max(ends) > size:
        raise BlockFormatError(f"truncated block file: {path} needs {max(ends)} bytes, has {size}")
    return header


# Most replica files an OpenReplicas keeps open; it also keeps to half the
# soft descriptor limit, to leave the rest of the process its descriptors.
MAX_OPEN_REPLICAS = 4096


def _close_all(entries: dict) -> None:
    while entries:
        os.close(entries.popitem()[1][0])


class OpenReplicas:
    """Open replica files with their parsed headers, one entry per path.

    An entry lives until `drop` or `close`, until it is the oldest of a full
    table, or until the table is collected. One thread uses a table.
    """

    def __init__(self) -> None:
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        half = MAX_OPEN_REPLICAS if soft == resource.RLIM_INFINITY else soft // 2
        self.capacity = max(1, min(MAX_OPEN_REPLICAS, half))
        self._entries: dict[str, tuple[int, BlockFileHeader, int]] = {}  # fd, header, its length
        weakref.finalize(self, _close_all, self._entries)

    def open(self, path: str, counter: Optional[ReadCounter] = None) -> tuple[int, BlockFileHeader]:
        """The descriptor and header of the file at `path`, charged to
        `counter` as `read_header` charges it. A miss opens and parses the
        file, evicting the oldest entry of a full table; a header that does
        not parse raises and leaves no entry and no open descriptor."""
        entry = self._entries.get(path)
        if entry is None:
            fd = os.open(path, os.O_RDONLY)
            try:
                header, raw = _parse_header(fd)
            except BaseException:
                os.close(fd)
                raise
            if len(self._entries) >= self.capacity:
                os.close(self._entries.pop(next(iter(self._entries)))[0])
            entry = self._entries[path] = (fd, header, len(raw))
        if counter is not None:
            counter.bytes_read += entry[2]
        return entry[0], entry[1]

    def drop(self, path: str) -> None:
        """Forget `path` and close its descriptor, if it has an entry."""
        entry = self._entries.pop(path, None)
        if entry is not None:
            os.close(entry[0])

    def close(self) -> None:
        """Close every descriptor; a later `open` starts afresh."""
        _close_all(self._entries)


def read_permutation(
    f: FileLike, header: BlockFileHeader, counter: Optional[ReadCounter] = None
) -> np.ndarray:
    if not header.has_permutation_vector:
        raise BlockFormatError("block file has no permutation-vector section")
    out = np.empty(header.perm_count, dtype="<u8")
    got = os.preadv(f if type(f) is int else f.fileno(), (out,), header.perm_offset)
    if got != out.nbytes:
        raise BlockFormatError(
            f"truncated block file: wanted {out.nbytes} bytes at {header.perm_offset}, got {got}"
        )
    if counter is not None:
        counter.bytes_read += got
    return out


def read_column_range(
    f: FileLike,
    header: BlockFileHeader,
    name: str,
    start: int,
    stop: int,
    counter: Optional[ReadCounter] = None,
) -> np.ndarray:
    """Read rows [start, stop) of one column; only those bytes are fetched.

    The rows are read straight into a new array, which the caller owns.
    """
    try:
        dtype = header.column_dtypes[name]
    except KeyError:
        raise SchemaError(f"unknown attribute {name!r}") from None
    if start < 0:
        start = 0
    if stop > header.record_count:
        stop = header.record_count
    if stop <= start:
        return np.empty(0, dtype=dtype)
    out = np.empty(stop - start, dtype=dtype)
    offset = header.column_offsets[name] + start * dtype.itemsize
    got = os.preadv(f if type(f) is int else f.fileno(), (out,), offset)
    if got != out.nbytes:
        raise BlockFormatError(
            f"truncated block file: wanted {out.nbytes} bytes at {offset}, got {got}"
        )
    if counter is not None:
        counter.bytes_read += got
    return out


def read_block(
    path: Path | str,
    projection: Optional[Iterable[str]] = None,
    counter: Optional[ReadCounter] = None,
) -> DataBlock:
    """Read a block, restricted to `projection` columns.

    Unprojected columns are never fetched.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        header = read_header(fd, counter)
        sub = header.schema if projection is None else header.schema.subset(projection)

        columns = {
            a.name: read_column_range(fd, header, a.name, 0, header.record_count, counter)
            for a in sub.attributes
        }

        # A projection without the sort attribute drops the index with it.
        index = header.index if header.sort_attribute in sub.names else None
        perm = None
        if header.has_permutation_vector:
            perm = read_permutation(fd, header, counter)

        return DataBlock(
            block_id=header.block_id, schema=sub, columns=columns, index=index, permutation=perm
        )
    finally:
        os.close(fd)


def pseudo_replica_path(node_root: Path | str, block_id: int, attribute: str) -> Path:
    """Deterministic pseudo-replica location: <node>/pseudo/blk_<id>/<attr>."""
    return Path(node_root) / "pseudo" / f"blk_{block_id}" / attribute


def publish_block_once(block: DataBlock, final_path: Path) -> bool:
    """Create `final_path` holding `block`; False, and no write, when a file is
    already there: another writer's, or one left by a crash or a failed
    cleanup, which the next `Cluster.open` repairs."""
    try:
        write_block(block, final_path, exclusive=True)
    except FileExistsError:
        return False
    return True
