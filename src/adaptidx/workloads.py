"""Dataset generation and the on-disk dataset container.

Two generators mirror the benchmark shapes used throughout the experiments:

* a numeric "scientific" dataset whose first attribute takes values 1..10
  with exponentially growing repetition (value i appears ~10^(i-1) times, so
  value 10 covers ~90% of the rows), shuffled so every block sees the same
  distribution;
* a web-log-like dataset of nine mostly-string attributes, with a search-word
  attribute drawn uniformly from 500 distinct values so single-word and
  two-word range predicates select ~0.2% and ~0.4% of the rows.

Both are fully deterministic in (rows, seed): the same inputs produce
byte-identical files. A dataset file is a single block file (see
`blockfile`), written as block 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockfile import read_block, write_block
from .blocks import DataBlock, FLOAT64, INT64, STRING, Schema
from .errors import ConfigError

SYNTHETIC_SCHEMA = Schema.of(
    ("a", INT64),
    ("b", FLOAT64),
    ("c", FLOAT64),
    ("d", FLOAT64),
    ("e", FLOAT64),
    ("f", FLOAT64),
)

USERVISITS_SCHEMA = Schema.of(
    ("source_ip", STRING, 16),
    ("dest_url", STRING, 100),
    ("visit_date", STRING, 10),
    ("ad_revenue", FLOAT64),
    ("user_agent", STRING, 64),
    ("country_code", STRING, 3),
    ("language_code", STRING, 6),
    ("search_word", STRING, 32),
    ("duration", INT64),
)

SEARCH_WORD_VALUES = 500


@dataclass
class Dataset:
    schema: Schema
    columns: dict[str, np.ndarray]

    @property
    def row_count(self) -> int:
        return len(self.columns[self.schema.attributes[0].name])

    def to_file(self, path: Path | str) -> int:
        """Write the dataset as one block file; returns the byte count."""
        return write_block(DataBlock(0, self.schema, self.columns), path)

    @classmethod
    def from_file(cls, path: Path | str) -> "Dataset":
        """Read a dataset file; a truncated or foreign file raises BlockFormatError."""
        block = read_block(path)
        return cls(block.schema, block.columns)


def exponential_value_counts(rows: int) -> np.ndarray:
    """Rows per value i=1..10 under the 10^(i-1) repetition rule.

    Each value gets floor(rows * 10^(i-1) / sum); leftover rows go to the
    values with the largest fractional remainders (larger value wins ties),
    so the counts are deterministic and sum to `rows` exactly.
    """
    weights = np.array([10 ** (i - 1) for i in range(1, 11)], dtype=np.float64)
    total = weights.sum()
    exact = rows * weights / total
    counts = np.floor(exact).astype(np.int64)
    remainder = rows - int(counts.sum())
    if remainder > 0:
        frac = exact - counts
        order = sorted(range(10), key=lambda i: (frac[i], i), reverse=True)
        for i in order[:remainder]:
            counts[i] += 1
    return counts


def gen_synthetic(rows: int, seed: int) -> Dataset:
    """Six numeric attributes; attribute "a" follows the exponential rule."""
    if rows <= 0:
        raise ConfigError("rows must be positive")
    rng = np.random.default_rng(seed)
    counts = exponential_value_counts(rows)
    first = np.repeat(np.arange(1, 11, dtype="<i8"), counts)
    first = first[rng.permutation(rows)]
    columns = {"a": first}
    for name in ("b", "c", "d", "e", "f"):
        columns[name] = rng.random(rows).astype("<f8")
    return Dataset(SYNTHETIC_SCHEMA, columns)


def _pool(rng: np.random.Generator, count: int, width: int, prefix: str) -> np.ndarray:
    alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype="S1")
    head = prefix.encode("utf-8")
    body = width - len(head)
    letters = alphabet[rng.integers(0, len(alphabet), size=(count, body))]
    return np.array([head + b"".join(row) for row in letters], dtype=f"S{width}")


def search_word(i: int) -> str:
    """The i-th search word; zero-padded so lexicographic order is numeric."""
    return f"w_{i:05d}"


def search_word_predicate(start: int = 100, words: int = 2) -> tuple[str, str]:
    """Closed range covering `words` adjacent search words.

    With the default 500 distinct uniformly drawn words, words=1 selects
    ~0.2% of the rows and words=2 selects ~0.4%.
    """
    return search_word(start), search_word(start + words - 1)


def gen_uservisits_like(rows: int, seed: int) -> Dataset:
    """Nine mostly-string attributes shaped like a web-visit log."""
    if rows <= 0:
        raise ConfigError("rows must be positive")
    rng = np.random.default_rng(seed)
    words = np.array(
        [search_word(i).encode("utf-8") for i in range(SEARCH_WORD_VALUES)], dtype="S32"
    )
    ips = _pool(rng, 4096, 16, "ip-")
    urls = _pool(rng, 1024, 100, "http://site/")
    agents = _pool(rng, 256, 64, "agent/")
    countries = _pool(rng, 32, 3, "")
    languages = _pool(rng, 24, 6, "")
    dates = np.array(
        [f"2011-{m:02d}-{d:02d}".encode() for m in range(1, 13) for d in range(1, 29)],
        dtype="S10",
    )
    columns = {
        "source_ip": ips[rng.integers(0, len(ips), rows)],
        "dest_url": urls[rng.integers(0, len(urls), rows)],
        "visit_date": dates[rng.integers(0, len(dates), rows)],
        "ad_revenue": rng.random(rows).astype("<f8") * 500.0,
        "user_agent": agents[rng.integers(0, len(agents), rows)],
        "country_code": countries[rng.integers(0, len(countries), rows)],
        "language_code": languages[rng.integers(0, len(languages), rows)],
        "search_word": words[rng.integers(0, SEARCH_WORD_VALUES, rows)],
        "duration": rng.integers(1, 10_000, rows, dtype="<i8"),
    }
    return Dataset(USERVISITS_SCHEMA, columns)
