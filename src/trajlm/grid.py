"""Planar grid discretization and trajectory corpus preprocessing.

Coordinates are projected meters; mapping from latitude/longitude is the
caller's concern. Cells are indexed (col, row) from the grid origin, and a
point on a cell edge belongs to the cell given by plain floor arithmetic
(lower/left inclusive).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import DataError, DomainError, decoding


class CellId(NamedTuple):
    col: int
    row: int


class ShiftResult(NamedTuple):
    cell: CellId
    clamped: bool


@dataclass(frozen=True)
class GridSpec:
    """Regular square grid: origin in meters, cell size in meters, col/row counts."""

    origin_x: float
    origin_y: float
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
        return self.origin_x + self.n_cols * self.cell_size

    @property
    def max_y(self) -> float:
        return self.origin_y + self.n_rows * self.cell_size

    def contains_point(self, x: float, y: float) -> bool:
        return self.origin_x <= x < self.max_x and self.origin_y <= y < self.max_y

    def contains_cell(self, c: CellId) -> bool:
        return 0 <= c.col < self.n_cols and 0 <= c.row < self.n_rows


@dataclass
class RawTrajectory:
    """Chronological (x, y, t) points with strictly increasing timestamps."""

    traj_id: str
    points: list[tuple[float, float, float]]
    agent_id: str | None = None

    def __post_init__(self) -> None:
        for i in range(1, len(self.points)):
            if self.points[i][2] <= self.points[i - 1][2]:
                raise DomainError(
                    f"trajectory {self.traj_id!r}: t[{i}]={self.points[i][2]} "
                    f"does not increase past t[{i - 1}]={self.points[i - 1][2]}"
                )


def to_cell(p: tuple[float, float], g: GridSpec) -> CellId:
    """Map a point in meters to its grid cell by floor division from the origin."""
    x, y = p[0], p[1]
    if not g.contains_point(x, y):
        raise DomainError(
            f"point ({x}, {y}) outside grid bounds "
            f"[{g.origin_x}, {g.max_x}) x [{g.origin_y}, {g.max_y})"
        )
    return CellId(
        int(math.floor((x - g.origin_x) / g.cell_size)),
        int(math.floor((y - g.origin_y) / g.cell_size)),
    )


def cell_center(c: CellId, g: GridSpec) -> tuple[float, float]:
    """Center point of a cell; inverse of to_cell up to discretization."""
    if not g.contains_cell(c):
        raise DomainError(f"cell {tuple(c)} outside grid {g.n_cols}x{g.n_rows}")
    return (
        g.origin_x + (c.col + 0.5) * g.cell_size,
        g.origin_y + (c.row + 0.5) * g.cell_size,
    )


def discretize(t: RawTrajectory, g: GridSpec, dedup: bool = False) -> list[CellId]:
    """Discretize a trajectory's points in order; optionally collapse consecutive duplicates."""
    cells: list[CellId] = []
    for i, (x, y, _ts) in enumerate(t.points):
        try:
            c = to_cell((x, y), g)
        except DomainError as e:
            raise DomainError(f"trajectory {t.traj_id!r}, point {i}: {e}") from e
        if dedup and cells and cells[-1] == c:
            continue
        cells.append(c)
    return cells


def group_by_od(
    ts: Sequence[Sequence[CellId]],
) -> dict[tuple[CellId, CellId], list[Sequence[CellId]]]:
    """Partition cell sequences by their (first cell, last cell) endpoint pair."""
    groups: dict[tuple[CellId, CellId], list[Sequence[CellId]]] = {}
    for i, seq in enumerate(ts):
        if len(seq) == 0:
            raise DomainError(f"trajectory {i} is empty; cannot key by endpoints")
        groups.setdefault((seq[0], seq[-1]), []).append(seq)
    return groups


def filter_od_groups(
    groups: dict[tuple[CellId, CellId], list], min_count: int
) -> dict[tuple[CellId, CellId], list]:
    """Keep only endpoint groups with at least min_count members."""
    if min_count < 1:
        raise DomainError(f"min_count must be >= 1, got {min_count}")
    return {k: v for k, v in groups.items() if len(v) >= min_count}


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


def read_raw_trajectories(path) -> Iterator[RawTrajectory]:
    """Read line-delimited {"id", "agent_id"?, "points": [[x, y, t], ...]} records."""
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from e
            if not isinstance(rec, dict):
                raise DataError(
                    f"{path}:{lineno}: trajectory record must be a JSON object, got {type(rec).__name__}"
                )
            if "_meta" in rec:
                continue
            try:
                yield RawTrajectory(
                    traj_id=str(rec["id"]),
                    points=[(float(x), float(y), float(t)) for x, y, t in rec["points"]],
                    agent_id=rec.get("agent_id"),
                )
            except (KeyError, TypeError, ValueError) as e:
                raise DataError(f"{path}:{lineno}: bad trajectory record: {e}") from e
