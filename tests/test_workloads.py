import numpy as np
import pytest

from adaptidx.errors import BlockFormatError, ConfigError
from adaptidx.workloads import (
    Dataset,
    SEARCH_WORD_VALUES,
    exponential_value_counts,
    gen_synthetic,
    gen_uservisits_like,
    search_word_predicate,
)


def test_exponential_counts_value_ten_dominates():
    rows = 1_111_111
    counts = exponential_value_counts(rows)
    assert counts.sum() == rows
    share = counts[9] / rows
    assert 0.899 <= share <= 0.901  # 10^9 / sum(10^(i-1)) = 0.9


def test_exponential_counts_floor_rule_small():
    rows = 10
    counts = exponential_value_counts(rows)
    # oracle: exact fractions, no floats
    total = sum(10 ** (i - 1) for i in range(1, 11))
    floors = [rows * 10 ** (i - 1) // total for i in range(1, 11)]
    assert counts.sum() == rows
    for i in range(10):
        assert counts[i] >= floors[i]
    assert sum(counts[i] - floors[i] for i in range(10)) == rows - sum(floors)


def test_exponential_remainder_prefers_largest_fraction():
    rows = 10
    counts = exponential_value_counts(rows)
    # the only value with floor > 0 is 10 (9 rows); the leftover row goes to 9,
    # whose fractional share (0.9) is the largest among the floored values
    assert counts[9] == 9
    assert counts[8] == 1
    assert counts[:8].sum() == 0


def test_gen_synthetic_is_deterministic(tmp_path):
    a = gen_synthetic(5_000, seed=42)
    b = gen_synthetic(5_000, seed=42)
    pa, pb = tmp_path / "a", tmp_path / "b"
    a.to_file(pa)
    b.to_file(pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = gen_synthetic(5_000, seed=43)
    pc = tmp_path / "c"
    c.to_file(pc)
    assert pa.read_bytes() != pc.read_bytes()


def test_gen_synthetic_shape_and_shuffle():
    ds = gen_synthetic(20_000, seed=1)
    assert ds.row_count == 20_000
    assert ds.schema.names == ("a", "b", "c", "d", "e", "f")
    first = ds.columns["a"]
    assert first.min() >= 1 and first.max() <= 10
    # shuffled: the dominant value must appear in every slice
    for chunk in np.array_split(first, 10):
        assert (chunk == 10).mean() > 0.8


def test_gen_synthetic_rejects_nonpositive_rows():
    with pytest.raises(ConfigError):
        gen_synthetic(0, seed=1)


def test_gen_uservisits_rejects_zero_rows():
    with pytest.raises(ConfigError):
        gen_uservisits_like(0, seed=1)


def test_gen_uservisits_deterministic():
    a = gen_uservisits_like(2_000, seed=5)
    b = gen_uservisits_like(2_000, seed=5)
    for name in a.schema.names:
        assert np.array_equal(a.columns[name], b.columns[name])


def test_search_word_predicate_selectivities():
    rows = 400_000
    ds = gen_uservisits_like(rows, seed=9)
    words = ds.columns["search_word"]

    low, high = search_word_predicate(start=100, words=2)
    mask = (words >= low.encode()) & (words <= high.encode())
    fraction = mask.mean()
    assert fraction == pytest.approx(2 / SEARCH_WORD_VALUES, abs=0.0005)  # 0.4% +/- 0.05%

    low1, high1 = search_word_predicate(start=250, words=1)
    mask1 = (words >= low1.encode()) & (words <= high1.encode())
    assert mask1.mean() == pytest.approx(1 / SEARCH_WORD_VALUES, abs=0.0005)  # 0.2%


def test_dataset_file_round_trip(tmp_path):
    ds = gen_uservisits_like(500, seed=3)
    path = tmp_path / "uv.adxd"
    ds.to_file(path)
    again = Dataset.from_file(path)
    assert again.schema == ds.schema
    assert again.row_count == 500
    for name in ds.schema.names:
        assert np.array_equal(again.columns[name], ds.columns[name])


def test_dataset_file_bad_magic(tmp_path):
    from adaptidx.errors import BlockFormatError

    path = tmp_path / "junk"
    path.write_bytes(b"WAT?" + b"\x00" * 32)
    with pytest.raises(BlockFormatError):
        Dataset.from_file(path)


@pytest.mark.parametrize("cut", ["header", "first_column", "element_boundary", "mid_element"])
def test_truncated_dataset_file_raises(tmp_path, cut):
    ds = gen_synthetic(1_000, seed=2)
    path = tmp_path / "data.adxd"
    size = ds.to_file(path)
    keep = {
        "header": 20,
        "first_column": size - 6 * 8 * 1_000 + 100,
        "element_boundary": size - 8 * 10,  # last column ten values short
        "mid_element": size - 3,
    }[cut]
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(BlockFormatError, match="truncated block file"):
        Dataset.from_file(path)
