import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajlm.errors import DomainError
from trajlm.grid import CellId, GridSpec, shift_cell, to_cell

G100 = GridSpec(cell_size=100.0, n_cols=20, n_rows=20)


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


@given(st.integers(0, 19), st.integers(0, 19))
def test_to_cell_maps_cell_centres_back(col, row):
    centre = ((col + 0.5) * G100.cell_size, (row + 0.5) * G100.cell_size)
    assert to_cell(centre, G100) == CellId(col, row)


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 4, 4)
    with pytest.raises(DomainError):
        GridSpec(10.0, 0, 4)


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

