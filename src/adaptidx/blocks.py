"""In-memory columnar block model.

A data block stores all values of one attribute contiguously (PAX-style
within-block columnar layout). Blocks are value-like and cheap to hand
between workers: they are immutable after creation by convention, and a block
handed to an Adaptive Indexer has its columns marked read-only, so the
convention is enforced from the hand-off on.
"""

from __future__ import annotations

import functools
import math
import operator
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import SchemaError

INT64 = "int64"
FLOAT64 = "float64"
STRING = "string"

_KINDS = (INT64, FLOAT64, STRING)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class Attribute:
    """One schema attribute: int64, float64, or fixed-width string. Its name is
    a replica's file name too: non-empty, without `/` or NUL, and not starting
    with `.`, so never `..` or a lazy completion's temp name."""

    name: str
    kind: str
    width: int = 0  # byte width for STRING, ignored otherwise

    def __post_init__(self) -> None:
        if not self.name or self.name.startswith(".") or "/" in self.name or "\0" in self.name:
            raise SchemaError(f"attribute name {self.name!r} is not a valid file name")
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown attribute kind {self.kind!r}")
        if self.kind == STRING and self.width <= 0:
            raise SchemaError(f"string attribute {self.name!r} needs width > 0")

    @functools.cached_property
    def dtype(self) -> np.dtype:
        if self.kind == INT64:
            return np.dtype("<i8")
        if self.kind == FLOAT64:
            return np.dtype("<f8")
        return np.dtype(f"S{self.width}")

    @property
    def item_size(self) -> int:
        return self.width if self.kind == STRING else 8

    def coerce_range(self, low, high) -> tuple:
        """The closed range [low, high] as bounds in this attribute's
        comparison domain, compared with a column as `lo <= value <= hi`.

        A bound of the wrong type, a NaN bound, or low > high raises
        SchemaError. On an int64 attribute the bounds select the integers in
        the range: a fractional low rounds up and a fractional high rounds
        down, an infinite bound is an open end, and a range holding no int64
        comes back with lo > hi, so it selects no row. A string bound loses
        its trailing NUL bytes, which the column's comparisons ignore.
        """
        if self.kind == STRING:
            lo, hi = self._coerce_bytes(low), self._coerce_bytes(high)
        else:
            lo, hi = self._coerce_number(low), self._coerce_number(high)
        if lo > hi:
            raise SchemaError(f"predicate range is empty: {low!r} > {high!r}")
        if self.kind == INT64:
            lo, hi = math.ceil(max(lo, _INT64_MIN)), math.floor(min(hi, _INT64_MAX))
            if lo > hi:
                return 1, 0  # no int64 in the range; both bounds stay in the domain
        return lo, hi

    def _incomparable(self, value) -> SchemaError:
        return SchemaError(f"cannot compare {value!r} with {self.kind} attribute {self.name!r}")

    def _coerce_bytes(self, value) -> np.bytes_:
        if isinstance(value, str):
            value = value.encode("utf-8")
        if not isinstance(value, bytes):  # np.bytes_(n) would be n zero bytes
            raise self._incomparable(value)
        # Stripped, the bound orders the same in Python as in the column,
        # which compares as if NUL-padded; `bisect` relies on that.
        return np.bytes_(value.rstrip(b"\0"))

    def _coerce_number(self, value) -> int | float:
        """`value` as a float, or as an exact int when the attribute is int64
        and the value integral. Text and booleans raise, although `float` and
        `operator.index` take them."""
        if isinstance(value, (str, bytes, bool, np.bool_)):
            raise self._incomparable(value)
        if self.kind == INT64 and not isinstance(value, float):
            try:
                return operator.index(value)
            except TypeError:
                pass
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise self._incomparable(value) from None
        if math.isnan(number):
            raise SchemaError(f"NaN bound for {self.kind} attribute {self.name!r}")
        return number


@dataclass(frozen=True)
class Schema:
    """Attributes in order; name lookups go through a map built once per schema."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("schema must have at least one attribute")
        if len(self._by_name) != len(self.attributes):
            raise SchemaError("attribute names must be unique")

    @classmethod
    def of(cls, *specs: tuple) -> "Schema":
        """Build a schema from (name, kind[, width]) tuples."""
        return cls(tuple(Attribute(*s) for s in specs))

    @functools.cached_property
    def _by_name(self) -> dict[str, tuple[int, Attribute]]:
        return {a.name: (i, a) for i, a in enumerate(self.attributes)}

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def _lookup(self, name: str) -> tuple[int, Attribute]:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def attribute(self, name: str) -> Attribute:
        return self._lookup(name)[1]

    def ordinal(self, name: str) -> int:
        return self._lookup(name)[0]

    @property
    def row_width(self) -> int:
        return sum(a.item_size for a in self.attributes)

    def subset(self, names: Iterable[str]) -> "Schema":
        """Sub-schema containing `names`, preserving this schema's order."""
        wanted = set(names)
        missing = wanted - self._by_name.keys()
        if missing:
            raise SchemaError(f"unknown attributes {sorted(missing)}")
        return Schema(tuple(a for a in self.attributes if a.name in wanted))

    def to_json(self) -> list[dict]:
        return [
            {"name": a.name, "kind": a.kind, "width": a.width}
            for a in self.attributes
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "Schema":
        return cls(
            tuple(
                Attribute(d["name"], d["kind"], d.get("width", 0)) for d in data
            )
        )


@dataclass
class SparseClusteredIndex:
    """Page directory over a sorted column: one (first key, start row) per page.

    Entry k covers rows [start_records[k], start_records[k+1]); the last entry
    covers through record_count.
    """

    attribute: str
    page_size_records: int
    first_keys: np.ndarray
    start_records: np.ndarray
    record_count: int

    @classmethod
    def from_sorted_column(
        cls, attribute: str, column: np.ndarray, page_size_records: int
    ) -> "SparseClusteredIndex":
        n = len(column)
        starts = np.arange(0, n, page_size_records, dtype=np.uint64)
        return cls(
            attribute=attribute,
            page_size_records=page_size_records,
            first_keys=column[starts.astype(np.int64)].copy(),
            start_records=starts,
            record_count=n,
        )

    @property
    def entry_count(self) -> int:
        return len(self.start_records)

    def validate(self) -> None:
        if self.record_count == 0:
            if self.entry_count != 0:
                raise SchemaError("empty index must have no entries")
            return
        if self.entry_count == 0:
            raise SchemaError("non-empty index must have entries")
        if int(self.start_records[0]) != 0:
            raise SchemaError("first index entry must start at record 0")
        if np.any(np.diff(self.start_records.astype(np.int64)) <= 0):
            raise SchemaError("index entry starts must be strictly increasing")
        if np.any(self.first_keys[:-1] > self.first_keys[1:]):
            raise SchemaError("index first keys must be non-decreasing")
        if int(self.start_records[-1]) >= self.record_count:
            raise SchemaError("last index entry starts beyond record count")


@dataclass
class DataBlock:
    """A columnar block: equal-length columns over a fixed schema."""

    block_id: int
    schema: Schema
    columns: dict[str, np.ndarray]
    index: Optional[SparseClusteredIndex] = None  # when set, columns are sorted on its attribute
    permutation: Optional[np.ndarray] = None

    @property
    def sort_attribute(self) -> Optional[str]:
        return self.index.attribute if self.index is not None else None

    @property
    def record_count(self) -> int:
        first = self.schema.attributes[0].name
        return len(self.columns[first])

    def validate(self) -> None:
        if set(self.columns) != set(self.schema.names):
            raise SchemaError("columns do not match schema attributes")
        n = self.record_count
        for name in self.schema.names:
            col = self.columns[name]
            if len(col) != n:
                raise SchemaError(f"column {name!r} has {len(col)} of {n} records")
            expect = self.schema.attribute(name).dtype
            if col.dtype.itemsize != expect.itemsize or col.dtype.kind != expect.kind:
                raise SchemaError(
                    f"column {name!r} dtype {col.dtype} != schema {expect}"
                )
        if self.index is not None:
            if self.sort_attribute not in self.schema:
                raise SchemaError(f"sort attribute {self.sort_attribute!r} not in schema")
            col = self.columns[self.sort_attribute]
            head = col
            if col.dtype.kind == "f":
                # Sorted as numpy sorts: non-decreasing, then only NaNs. A NaN
                # elsewhere compares false with all, so `>` alone passes it.
                nan = np.isnan(col)
                head = col[: n - np.count_nonzero(nan)]
                if nan[: len(head)].any():
                    raise SchemaError(f"column {self.sort_attribute!r} has NaN before a number")
            if np.any(head[:-1] > head[1:]):
                raise SchemaError(f"column {self.sort_attribute!r} is not sorted")
            self.index.validate()
            if self.index.record_count != n:
                raise SchemaError("index record count does not match block")
            keys = col[self.index.start_records.astype(np.int64)]
            # NaN keys, which sort last, are equal here; bytes have no NaN.
            if not np.array_equal(keys, self.index.first_keys, equal_nan=col.dtype.kind == "f"):
                raise SchemaError("index keys are not a subsequence of the column")
        if self.permutation is not None and len(self.permutation) != n:
            raise SchemaError("permutation vector length does not match block")

    # Unused by the engine; kept because bench/spans.py wraps it by name.
    def checksum(self) -> int:
        """Order-sensitive checksum of the column payloads."""
        crc = 0
        for name in self.schema.names:
            crc = zlib.crc32(self.columns[name].tobytes(), crc)
        return crc


def blocks_equal(a: DataBlock, b: DataBlock) -> bool:
    """Column-wise equality: ids, record counts, names, and values."""
    if a.block_id != b.block_id or a.record_count != b.record_count:
        return False
    if a.schema.names != b.schema.names:
        return False
    return all(np.array_equal(a.columns[n], b.columns[n]) for n in a.schema.names)
