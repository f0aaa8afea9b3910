import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adaptidx.errors import ConfigError
from adaptidx.policy import Calibration, CostModelParams, compute_rho, n_fsw, predict_T_job


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
