import math
import re
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adaptidx.errors import ConfigError
from adaptidx.policy import (
    Calibration,
    CostModelParams,
    compute_rho,
    indexing_waves,
    n_fsw,
    predict_T_job,
)


def params(**kw):
    defaults = dict(
        n_slots=10,
        n_blocks=100,
        n_idx_blocks=20,
        t_fsw=10.0,
        t_idx_overhead=2.0,
        T_is=10.0,
        T_target=100.0,
    )
    defaults.update(kw)
    return CostModelParams(**defaults)


def test_n_fsw_examples():
    assert n_fsw(params()) == 8  # ceil((100-20)/10)
    assert n_fsw(params(n_idx_blocks=100)) == 0
    assert n_fsw(params(n_blocks=101, n_idx_blocks=0)) == 11


def test_predict_zero_rate_is_scan_only():
    p = params()
    assert predict_T_job(p, 0.0) == p.T_is + p.t_fsw * n_fsw(p)


def test_predict_hand_evaluated_example():
    # T_is=10, t_fsw=10, n_fsw=8, t_idx=2, blocks=100, slots=10, rho=0.5
    # -> 10 + 80 + 2*min(5, 8) = 100
    assert predict_T_job(params(), 0.5) == pytest.approx(100.0)


def test_predict_min_clamps_at_full_scan_waves():
    p = params(n_idx_blocks=80)  # n_fsw = 2 < rho * 10
    assert predict_T_job(p, 1.0) == pytest.approx(p.T_is + p.t_fsw * 2 + p.t_idx_overhead * 2)


def test_indexing_waves_examples():
    assert indexing_waves(params(), 0.5) == pytest.approx(5.0)  # 0.5 * 10 waves
    assert indexing_waves(params(), 1.0) == 8  # capped at the 8 full-scan waves
    assert indexing_waves(params(), 0.0) == 0.0


def test_compute_rho_closed_form_example():
    # (100 - 10 - 80) / (2 * 10) = 0.5
    assert compute_rho(params()) == pytest.approx(0.5)


def test_compute_rho_no_budget_clamps_to_zero():
    assert compute_rho(params(T_target=50.0)) == 0.0


def test_compute_rho_clamps_to_one():
    assert compute_rho(params(T_target=1e6)) == 1.0


def test_compute_rho_free_indexing_degenerate():
    assert compute_rho(params(t_idx_overhead=0.0)) == 1.0
    assert compute_rho(params(t_idx_overhead=0.0, T_target=10.0)) == 0.0


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        params(n_idx_blocks=200)
    with pytest.raises(ConfigError):
        params(n_slots=0)
    with pytest.raises(ConfigError):
        params(t_fsw=-1.0)
    with pytest.raises(ConfigError):
        predict_T_job(params(), 1.5)


@pytest.mark.parametrize(
    "bad, message",
    [
        # A NaN time once made compute_rho return NaN, past its clamp; an
        # infinite one, a rate solved from nonsense.
        (dict(t_fsw=float("nan")), "t_fsw must be non-negative and finite, got nan"),
        (dict(t_fsw=float("inf")), "t_fsw must be non-negative and finite, got inf"),
        (dict(t_idx_overhead=float("inf")), "t_idx_overhead must be non-negative and finite"),
        (dict(T_is=float("inf")), "T_is must be non-negative and finite, got inf"),
        (dict(T_target=float("inf")), "T_target must be non-negative and finite, got inf"),
        (dict(n_blocks=-10, n_idx_blocks=-20), "block counts must be non-negative"),
        (dict(n_idx_blocks=-1), "block counts must be non-negative, got 100 and -1"),
    ],
)
def test_non_finite_times_and_negative_block_counts_rejected(bad, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        params(**bad)


def test_calibration_load_refuses_a_non_finite_value(tmp_path):
    path = tmp_path / "calibration.json"
    path.write_text('{"t_fsw": 0.5, "t_idx_overhead": Infinity, "t_target": null}')
    with pytest.raises(ConfigError, match="'t_idx_overhead' must be finite, got inf"):
        Calibration.load(path)


@given(
    st.integers(1, 50),
    st.integers(1, 500),
    st.integers(0, 500),
    st.floats(0.01, 50.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 500.0),
)
@settings(max_examples=200, deadline=None)
def test_predict_monotone_in_rho(slots, blocks, idx, t_fsw, t_idx, t_is):
    idx = min(idx, blocks)
    p = CostModelParams(slots, blocks, idx, t_fsw, t_idx, t_is, 0.0)
    last = -1.0
    for rho in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
        value = predict_T_job(p, rho)
        assert value >= last
        last = value


@given(
    st.integers(1, 50),
    st.integers(1, 500),
    st.integers(0, 500),
    st.floats(0.01, 50.0),
    st.floats(0.01, 20.0),
    st.floats(0.0, 200.0),
    st.floats(0.0, 2000.0),
)
@settings(max_examples=200, deadline=None)
def test_compute_rho_monotonicity(slots, blocks, idx, t_fsw, t_idx, t_is, target):
    idx = min(idx, blocks)
    p = CostModelParams(slots, blocks, idx, t_fsw, t_idx, t_is, target)
    base = compute_rho(p)
    assert compute_rho(CostModelParams(slots, blocks, idx, t_fsw, t_idx, t_is + 1.0, target)) <= base
    assert compute_rho(CostModelParams(slots, blocks, idx, t_fsw + 1.0, t_idx, t_is, target)) <= base


@given(
    st.integers(1, 50),
    st.integers(1, 500),
    st.integers(0, 500),
    st.floats(0.01, 50.0),
    st.floats(0.01, 20.0),
    st.floats(0.0, 200.0),
    st.floats(0.0, 5000.0),
)
@settings(max_examples=200, deadline=None)
def test_unclamped_rho_spends_budget_within_one_wave(
    slots, blocks, idx, t_fsw, t_idx, t_is, target
):
    idx = min(idx, blocks)
    p = CostModelParams(slots, blocks, idx, t_fsw, t_idx, t_is, target)
    rho = compute_rho(p)
    if 0.0 < rho < 1.0:  # unclamped
        assert predict_T_job(p, rho) <= target + t_idx + 1e-9


def test_calibration_round_trip(tmp_path):
    cal = Calibration(t_fsw=1.5, t_idx_overhead=0.25, t_target=12.0)
    assert cal.usable
    cal.save(tmp_path / "cal.json")
    again = Calibration.load(tmp_path / "cal.json")
    assert again == cal
    assert not Calibration().usable


def test_calibration_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    import adaptidx.policy as policy

    path = tmp_path / "calibration.json"
    Calibration(t_fsw=1.5, t_idx_overhead=0.25, t_target=12.0).save(path)

    def torn_dump(obj, f, **kwargs):
        f.write('{"t_fsw": 9')
        raise OSError("disk full")

    monkeypatch.setattr(policy.json, "dump", torn_dump)
    with pytest.raises(OSError):
        Calibration(t_fsw=9.0, t_idx_overhead=9.0, t_target=9.0).save(path)
    monkeypatch.undo()

    assert Calibration.load(path) == Calibration(t_fsw=1.5, t_idx_overhead=0.25, t_target=12.0)
    assert [p.name for p in tmp_path.iterdir()] == ["calibration.json"]


def test_calibration_load_of_a_missing_file_is_empty(tmp_path):
    assert Calibration.load(tmp_path / "calibration.json") == Calibration()
    assert not (tmp_path / "calibration.json").exists()


def test_fill_inverts_the_hand_evaluated_example():
    # The example of test_predict_hand_evaluated_example, read backwards:
    # 80 s over 8 full-scan waves, 10 s over min(0.5 * 10, 8) = 5 waves.
    cal = Calibration()
    cal.fill(params(t_fsw=0.0, t_idx_overhead=0.0), 0.5, 80.0, 10.0, 100.0)
    assert cal == Calibration(t_fsw=10.0, t_idx_overhead=2.0, t_target=100.0)


def test_fill_sets_nothing_from_a_count_or_an_overhead_of_zero():
    cal = Calibration()
    cal.fill(params(n_idx_blocks=100), 0.5, 0.0, 10.0, 20.0)  # no full-scan wave
    assert cal == Calibration(t_target=20.0)
    cal = Calibration()
    cal.fill(params(), 0.5, 80.0, 0.0, 90.0)  # nothing offered
    assert cal == Calibration(t_fsw=10.0, t_target=90.0)
    cal = Calibration()
    cal.fill(params(), 0.0, 80.0, 10.0, 90.0)  # rate 0: no indexing wave
    assert cal == Calibration(t_fsw=10.0, t_target=90.0)


def test_fill_sets_no_value_that_is_not_finite():
    big = sys.float_info.max
    cal = Calibration()
    cal.fill(params(), 0.5, math.inf, 10.0, math.inf)  # an overflowed scan phase
    assert cal == Calibration(t_idx_overhead=2.0)
    cal = Calibration()
    cal.fill(params(), 0.01, 80.0, big, big)  # big / 0.1 indexing waves overflows
    assert cal == Calibration(t_fsw=10.0, t_target=big)


def test_compute_rho_with_an_overflowed_scan_term_is_zero():
    # t_fsw * n_fsw overflows: the budget is -inf, and t_idx * waves is inf too
    big = sys.float_info.max
    assert compute_rho(params(t_fsw=big, t_idx_overhead=big, T_target=big)) == 0.0


_counts = (
    st.integers(1, 50),
    st.integers(0, 500),
    st.integers(0, 500),
    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    st.floats(0.0, 200.0),
    st.floats(0.0, 500.0),
    st.floats(1e-3, 50.0),
)


@given(*_counts)
@settings(max_examples=200, deadline=None)
def test_fill_then_predict_gives_back_the_measured_job(
    slots, blocks, idx, rho, t_is, t_scan, t_overhead
):
    idx = min(idx, blocks)
    counts = CostModelParams(slots, blocks, idx, 0.0, 0.0, t_is, 0.0)
    cal = Calibration()
    t_job = t_is + t_scan + t_overhead
    cal.fill(counts, rho, t_scan, t_overhead, t_job)
    assert cal.t_target == t_job
    if n_fsw(counts) > 0 and indexing_waves(counts, rho) > 0:
        p = CostModelParams(slots, blocks, idx, cal.t_fsw, cal.t_idx_overhead, t_is, cal.t_target)
        assert predict_T_job(p, rho) == pytest.approx(t_job)


@given(*_counts, st.sampled_from(["t_fsw", "t_idx_overhead", "t_target"]), st.floats(0.0, 9.0))
@settings(max_examples=100, deadline=None)
def test_fill_never_overwrites_a_set_value(
    slots, blocks, idx, rho, t_is, t_scan, t_overhead, name, value
):
    idx = min(idx, blocks)
    counts = CostModelParams(slots, blocks, idx, 0.0, 0.0, t_is, 0.0)
    cal = Calibration(**{name: value})
    cal.fill(counts, rho, t_scan, t_overhead, t_is + t_scan + t_overhead)
    assert getattr(cal, name) == value
    full = Calibration(t_fsw=1.0, t_idx_overhead=2.0, t_target=3.0)
    full.fill(counts, rho, t_scan, t_overhead, t_is + t_scan + t_overhead)
    assert full == Calibration(t_fsw=1.0, t_idx_overhead=2.0, t_target=3.0)
