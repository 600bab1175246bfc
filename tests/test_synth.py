from collections import Counter

import numpy as np
import pytest

from trajlm.errors import DomainError
from trajlm.grid import CellId, GridSpec
from trajlm.synth import (
    AnomalySpec,
    WorldConfig,
    gen_pol_corpus,
    gen_route_corpus,
    inject_detour,
    inject_random_shift,
    pol_location_tokens,
    round_half_up,
)

GRID = GridSpec(100.0, 30, 30)


def world(**kw):
    base = dict(n_agents=3, n_days=8, n_anomalous_agents=1, anomalous_days=2, seed=13, alt_prob=0.35)
    base.update(kw)
    return WorldConfig(**base)


def test_pol_corpus_counts_all_normal():
    corpus = gen_pol_corpus(world(n_agents=2, n_days=3, n_anomalous_agents=0, anomalous_days=0))
    assert len(corpus.trajectories) == 6
    assert all(t.label == "normal" for t in corpus.trajectories)


def test_pol_anomalies_on_final_days_of_chosen_agent():
    corpus = gen_pol_corpus(world())
    anomalous = [t for t in corpus.trajectories if t.label == "anomalous"]
    assert len(anomalous) == 2
    assert {t.agent for t in anomalous} == set(corpus.anomalous_agents)
    assert sorted(t.day_index for t in anomalous) == [6, 7]
    for t in anomalous:
        assert t.anomaly_pos is not None
        assert t.visits[t.anomaly_pos].staypoint != t.replaced_staypoint


def test_pol_anomaly_is_off_routine():
    corpus = gen_pol_corpus(world(n_days=14, anomalous_days=3))
    for t in corpus.trajectories:
        if t.label != "anomalous":
            continue
        schedule = corpus.schedules[t.agent]
        planted = t.visits[t.anomaly_pos].staypoint
        assert planted not in schedule.venues_for(t.weekday)


def test_pol_determinism():
    cfg = world()
    a, b = gen_pol_corpus(cfg), gen_pol_corpus(cfg)
    assert [(t.traj_id, t.label, [(v.staypoint, v.x, v.y, v.dwell_s) for v in t.visits])
            for t in a.trajectories] == \
           [(t.traj_id, t.label, [(v.staypoint, v.x, v.y, v.dwell_s) for v in t.visits])
            for t in b.trajectories]


def test_pol_config_validation():
    with pytest.raises(DomainError):
        world(n_anomalous_agents=5)
    with pytest.raises(DomainError):
        world(anomalous_days=99)
    with pytest.raises(DomainError):
        world(n_anomalous_agents=-1)
    with pytest.raises(DomainError):
        world(anomalous_days=-2)
    with pytest.raises(DomainError):
        world(alt_prob=3.0)
    with pytest.raises(DomainError):
        world(alt_prob=-0.1)


def test_pol_location_tokens_configurations():
    corpus = gen_pol_corpus(world())
    t = corpus.trajectories[0]
    stay = pol_location_tokens(t, "staypoint")
    gps = pol_location_tokens(t, "gps")
    dur = pol_location_tokens(t, "duration")
    both = pol_location_tokens(t, "staypoint_duration")
    assert len(stay) == len(gps) == len(dur) == len(t.visits)
    assert len(both) == 2 * len(t.visits)
    assert {tok.kind for tok in stay} == {"staypoint"}
    assert {tok.kind for tok in gps} == {"cell"}
    assert {tok.kind for tok in dur} == {"duration_bucket"}
    with pytest.raises(DomainError):
        pol_location_tokens(t, "nope")


def test_route_corpus_shares_endpoints():
    routes = gen_route_corpus(GRID, 1, 30, noise=0.1, seed=3)
    assert len(routes) == 30
    assert all(r[0] == routes[0][0] and r[-1] == routes[0][-1] for r in routes)


def test_route_corpus_noise_zero_identical_shortest():
    routes = gen_route_corpus(GRID, 1, 5, noise=0.0, seed=3)
    src, dst = routes[0][0], routes[0][-1]
    expected_len = abs(src.col - dst.col) + abs(src.row - dst.row) + 1
    assert all(r == routes[0] for r in routes)
    assert len(routes[0]) == expected_len


def test_route_corpus_survives_od_filter():
    routes = gen_route_corpus(GRID, 2, 25, noise=0.1, seed=4)
    groups = Counter((r[0], r[-1]) for r in routes)
    assert sum(n for n in groups.values() if n >= 25) == 50


def test_route_corpus_determinism_and_bad_pairs():
    a = gen_route_corpus(GRID, 2, 4, noise=0.3, seed=9)
    b = gen_route_corpus(GRID, 2, 4, noise=0.3, seed=9)
    assert a == b
    # no bad pair is sampled: both ends on the grid and at least max(4, (30 + 30) // 4) apart
    for route in a:
        (c0, r0), (c1, r1) = route[0], route[-1]
        assert all(0 <= v < 30 for v in (c0, r0, c1, r1))
        assert abs(c0 - c1) + abs(r0 - r1) >= 15


def test_route_corpus_rejects_grid_too_small_for_od_pairs():
    # the farthest pair of a 2x3 grid is 3 cells apart; OD pairs need 4
    with pytest.raises(DomainError):
        gen_route_corpus(GridSpec(100, 2, 3), 1, 1, 0.0, 1)


def test_route_corpus_rejects_empty_corpus():
    with pytest.raises(DomainError):
        gen_route_corpus(GRID, 0, 5, 0.0, 1)
    with pytest.raises(DomainError):
        gen_route_corpus(GRID, 2, 0, 0.0, 1)


def test_anomaly_spec_validation():
    with pytest.raises(DomainError):
        AnomalySpec(0.0, 3)
    with pytest.raises(DomainError):
        AnomalySpec(0.3, 0)
    with pytest.raises(TypeError):  # dist has no default: 0 would be rejected anyway
        AnomalySpec(0.3)


def straight_east(n, row=10):
    return [CellId(c, row) for c in range(n)]


def test_random_shift_zero_positions_is_identity():
    t = straight_east(12)
    out = inject_random_shift(t, AnomalySpec(0.04, 3), GRID, seed=1)
    assert round_half_up(0.04 * 10) == 0
    assert out == t


def test_random_shift_exact_positions_and_distance():
    t = straight_east(12)  # interior 10, ratio 0.3 -> exactly 3 shifted
    spec = AnomalySpec(0.3, 3)
    out = inject_random_shift(t, spec, GRID, seed=2)
    moved = [i for i, (a, b) in enumerate(zip(t, out)) if a != b]
    assert len(moved) == 3
    assert 0 not in moved and len(t) - 1 not in moved
    for i in moved:
        cheb = max(abs(out[i].col - t[i].col), abs(out[i].row - t[i].row))
        assert cheb == 3  # no clamping this far from the edges
    assert len(out) == len(t)


def test_random_shift_deterministic_and_short_input():
    t = straight_east(12)
    spec = AnomalySpec(0.3, 3)
    assert inject_random_shift(t, spec, GRID, 7) == inject_random_shift(t, spec, GRID, 7)
    with pytest.raises(DomainError):
        inject_random_shift(straight_east(2), spec, GRID, 1)


def test_detour_empty_window_warns_identity():
    t = straight_east(6)
    with pytest.warns(UserWarning):
        out = inject_detour(t, AnomalySpec(0.05, 3), GRID, seed=1)
    assert out == t


def test_detour_window_translated_perpendicular():
    t = straight_east(10)  # interior 8, ratio 0.4 -> window of 3
    spec = AnomalySpec(0.4, 3)
    out = inject_detour(t, spec, GRID, seed=5)
    assert len(out) == len(t)
    assert out[0] == t[0] and out[-1] == t[-1]
    moved = [i for i, (a, b) in enumerate(zip(t, out)) if a != b]
    assert len(moved) == round_half_up(0.4 * 8) == 3
    assert moved == list(range(moved[0], moved[0] + 3))  # contiguous window
    for i in moved:
        assert out[i].col == t[i].col            # travel axis preserved
        assert abs(out[i].row - t[i].row) == 3   # displaced perpendicular by dist
    offsets = {out[i].row - t[i].row for i in moved}
    assert len(offsets) == 1  # rigid translation


def test_detour_deterministic_and_short_input():
    t = straight_east(10)
    spec = AnomalySpec(0.4, 3)
    assert inject_detour(t, spec, GRID, 3) == inject_detour(t, spec, GRID, 3)
    with pytest.raises(DomainError):
        inject_detour(straight_east(4), spec, GRID, 3)


def test_detour_prefers_unclamped_side():
    t = [CellId(c, 0) for c in range(10)]  # hugging the row-0 edge
    out = inject_detour(t, AnomalySpec(0.4, 3), GRID, seed=5)
    moved = [i for i, (a, b) in enumerate(zip(t, out)) if a != b]
    assert moved and all(out[i].row == 3 for i in moved)


def test_injectors_preserve_endpoints_property():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(6, 30))
        t = straight_east(n, row=15)
        for inject, spec in ((inject_random_shift, AnomalySpec(0.3, 3)), (inject_detour, AnomalySpec(0.3, 2))):
            out = inject(t, spec, GRID, seed=trial)
            assert len(out) == len(t)
            assert out[0] == t[0] and out[-1] == t[-1]
