import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajlm.errors import DataError, DomainError
from trajlm.grid import (
    CellId,
    GridSpec,
    RawTrajectory,
    cell_center,
    discretize,
    filter_od_groups,
    group_by_od,
    read_raw_trajectories,
    shift_cell,
    to_cell,
)

G100 = GridSpec(origin_x=0.0, origin_y=0.0, cell_size=100.0, n_cols=20, n_rows=20)


def test_to_cell_origin():
    assert to_cell((0.0, 0.0), G100) == CellId(0, 0)


def test_to_cell_floor_arithmetic():
    assert to_cell((150.0, 250.0), G100) == CellId(1, 2)


def test_to_cell_boundary_assigned_by_floor():
    assert to_cell((100.0, 100.0), G100) == CellId(1, 1)


def test_to_cell_out_of_bounds_names_point_and_bounds():
    with pytest.raises(DomainError) as exc:
        to_cell((-5.0, 10.0), G100)
    assert "-5.0" in str(exc.value) and "2000" in str(exc.value)


def test_cell_center_examples():
    assert cell_center(CellId(0, 0), G100) == (50.0, 50.0)
    assert cell_center(CellId(1, 2), G100) == (150.0, 250.0)


def test_cell_center_out_of_bounds():
    with pytest.raises(DomainError):
        cell_center(CellId(20, 0), G100)


@given(st.integers(0, 19), st.integers(0, 19))
def test_to_cell_inverts_cell_center(col, row):
    c = CellId(col, row)
    assert to_cell(cell_center(c, G100), G100) == c


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(0, 0, 0.0, 4, 4)
    with pytest.raises(DomainError):
        GridSpec(0, 0, 10.0, 0, 4)


def _traj(points):
    return RawTrajectory(traj_id="t", points=points)


def test_discretize_dedup_collapses_consecutive():
    t = _traj([(10.0, 10.0, 0.0), (20.0, 20.0, 1.0)])
    assert discretize(t, G100) == [CellId(0, 0), CellId(0, 0)]
    assert discretize(t, G100, dedup=True) == [CellId(0, 0)]


def test_discretize_empty():
    assert discretize(_traj([]), G100) == []


def test_discretize_border_crossing_path():
    # hand-evaluated floors: 95 -> col 0, 130 -> col 1
    t = _traj([(10.0, 10.0, 0.0), (95.0, 40.0, 1.0), (130.0, 60.0, 2.0)])
    assert discretize(t, G100, dedup=True) == [CellId(0, 0), CellId(1, 0)]


def test_discretize_reports_point_index():
    t = _traj([(10.0, 10.0, 0.0), (-1.0, 0.0, 1.0)])
    with pytest.raises(DomainError) as exc:
        discretize(t, G100)
    assert "point 1" in str(exc.value)


def test_timestamps_must_strictly_increase():
    with pytest.raises(DomainError):
        _traj([(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])


def test_group_by_od_shared_endpoints():
    a = [CellId(0, 0), CellId(1, 1), CellId(2, 2)]
    b = [CellId(0, 0), CellId(2, 1), CellId(2, 2)]
    groups = group_by_od([a, b])
    assert len(groups) == 1
    assert groups[(CellId(0, 0), CellId(2, 2))] == [a, b]


def test_group_by_od_disjoint_endpoints():
    seqs = [[CellId(i, 0), CellId(i, 1)] for i in range(3)]
    assert all(len(v) == 1 for v in group_by_od(seqs).values())


def test_group_by_od_empty_sequence_indexed_error():
    with pytest.raises(DomainError) as exc:
        group_by_od([[CellId(0, 0)], []])
    assert "1" in str(exc.value)


@given(st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=6), max_size=12))
def test_group_by_od_partitions_input(raw):
    seqs = [[CellId(*c) for c in seq] for seq in raw]
    groups = group_by_od(seqs)
    assert sum(len(v) for v in groups.values()) == len(seqs)
    for (src, dst), members in groups.items():
        assert all(m[0] == src and m[-1] == dst for m in members)


def test_filter_od_groups_threshold_25():
    groups = {("a", "a"): list(range(3)), ("b", "b"): list(range(25))}
    assert set(filter_od_groups(groups, 25)) == {("b", "b")}


def test_filter_od_groups_min_1_is_identity():
    groups = {("a", "a"): [1], ("b", "b"): [1, 2]}
    assert filter_od_groups(groups, 1) == groups


def test_filter_od_groups_all_below():
    assert filter_od_groups({("a", "a"): [1, 2]}, 3) == {}


@given(st.dictionaries(st.integers(), st.lists(st.integers(), min_size=1, max_size=30), max_size=8),
       st.integers(1, 10), st.integers(0, 10))
def test_filter_monotone_in_min_count(groups, lo, extra):
    hi = lo + extra
    assert set(filter_od_groups(groups, hi)) <= set(filter_od_groups(groups, lo))


def test_shift_cell_zero_distance():
    res = shift_cell(CellId(5, 5), 0, (1, 0), G100)
    assert res.cell == CellId(5, 5) and not res.clamped


def test_shift_cell_east():
    res = shift_cell(CellId(5, 5), 3, (1, 0), G100)
    assert res.cell == CellId(8, 5) and not res.clamped


def test_shift_cell_clamps_at_edge():
    res = shift_cell(CellId(19, 5), 3, (1, 0), G100)
    assert res.cell == CellId(19, 5) and res.clamped


def test_shift_cell_chebyshev_distance():
    res = shift_cell(CellId(5, 5), 4, (1, -1), G100)
    assert max(abs(res.cell.col - 5), abs(res.cell.row - 5)) == 4


def test_shift_cell_rejects_bad_direction():
    with pytest.raises(DomainError):
        shift_cell(CellId(0, 0), 1, (0, 0), G100)
    with pytest.raises(DomainError):
        shift_cell(CellId(0, 0), 1, (2, 0), G100)


def test_read_raw_trajectories(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        '{"id": "a", "points": [[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]]}\n'
        '{"id": "b", "agent_id": "x", "points": [[0, 0, 0]]}\n'
    )
    trajs = list(read_raw_trajectories(path))
    assert [t.traj_id for t in trajs] == ["a", "b"]
    assert trajs[1].agent_id == "x"
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n')
    with pytest.raises(DataError):
        list(read_raw_trajectories(bad))


def test_read_raw_trajectories_rejects_non_object_line(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "points": [[0, 0, 0]]}\n5\n')
    with pytest.raises(DataError, match="bad.jsonl:2:"):
        list(read_raw_trajectories(bad))
