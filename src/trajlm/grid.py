"""Planar grid: points to cells, and cell shifts for anomaly injection.

Coordinates are projected meters with the grid's corner at (0, 0); mapping
from latitude/longitude is the caller's concern. Cells are indexed (col, row)
from that corner, and a point on a cell edge belongs to the cell given by
plain floor arithmetic (lower/left inclusive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError


class CellId(NamedTuple):
    col: int
    row: int


class ShiftResult(NamedTuple):
    cell: CellId
    clamped: bool


@dataclass(frozen=True)
class GridSpec:
    """Regular square grid from (0, 0): cell size in meters, col/row counts."""

    cell_size: float
    n_cols: int
    n_rows: int

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise DomainError(f"cell_size must be > 0, got {self.cell_size}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise DomainError(f"grid must have at least one cell, got {self.n_cols}x{self.n_rows}")

    @property
    def max_x(self) -> float:
        return self.n_cols * self.cell_size

    @property
    def max_y(self) -> float:
        return self.n_rows * self.cell_size

    def contains_point(self, x: float, y: float) -> bool:
        return 0.0 <= x < self.max_x and 0.0 <= y < self.max_y



def to_cell(p: tuple[float, float], g: GridSpec) -> CellId:
    """Map a point in meters to its grid cell by floor division."""
    x, y = p[0], p[1]
    if not g.contains_point(x, y):
        raise DomainError(f"point ({x}, {y}) outside grid bounds [0.0, {g.max_x}) x [0.0, {g.max_y})")
    return CellId(int(math.floor(x / g.cell_size)), int(math.floor(y / g.cell_size)))


def shift_cell(c: CellId, dist: int, direction: tuple[int, int], g: GridSpec) -> ShiftResult:
    """Displace a cell dist steps along a unit direction, clamping at grid edges.

    direction components must each be in {-1, 0, 1} and not both zero. When no
    clamping occurs the result is at Chebyshev distance dist from c.
    """
    if dist < 0:
        raise DomainError(f"dist must be >= 0, got {dist}")
    dx, dy = direction
    if dx not in (-1, 0, 1) or dy not in (-1, 0, 1) or (dx == 0 and dy == 0):
        raise DomainError(f"direction must be a unit step, got {direction}")
    col = c.col + dx * dist
    row = c.row + dy * dist
    clamped_col = min(max(col, 0), g.n_cols - 1)
    clamped_row = min(max(row, 0), g.n_rows - 1)
    return ShiftResult(CellId(clamped_col, clamped_row), (clamped_col, clamped_row) != (col, row))

