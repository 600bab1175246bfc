"""Synthetic labeled corpora for desk-scale experiments.

Two generators:

* a pattern-of-life world: agents with per-weekday staypoint routines (work,
  lunch, evening and weekend venues with small stochastic substitutions and
  dwell times), where selected agents spend their final days deviating from
  routine (a planted off-routine staypoint per anomalous day);
* a route corpus: noisy monotone lattice paths between fixed origin/destination
  cell pairs, plus injectors that corrupt routes with random cell shifts or a
  displaced contiguous detour window.

Everything is a pure function of (config, seed); per-unit randomness is split
by seeding each unit's generator with ``seed XOR (unit index + 1)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import CellId, GridSpec, shift_cell, to_cell
from .vocab import WEEKDAYS, Token, bucket_duration

HOME = "apartment"
WORK = "work"
LUNCH_VENUES = ("cafe", "diner", "bistro", "food_court")
EVENING_VENUES = ("gym", "bar", "cinema", "market")
WEEKEND_VENUES = ("park", "mall", "museum", "stadium", "arcade", "library")

STAYPOINT_CATALOG = (HOME, WORK) + LUNCH_VENUES + EVENING_VENUES + WEEKEND_VENUES

# Typical dwell per venue, in hours; chosen so duration buckets carry signal.
VENUE_DWELL_HOURS = {
    HOME: 8.4,
    WORK: 3.6,
    **{v: 0.7 for v in LUNCH_VENUES},
    **{v: 1.6 for v in EVENING_VENUES},
    **{v: 2.4 for v in WEEKEND_VENUES},
}

POL_GRID = GridSpec(cell_size=100.0, n_cols=32, n_rows=32)
DWELL_NOISE_H = 0.25  # std-dev of dwell-time jitter, hours
GPS_NOISE_M = 25.0    # std-dev of per-visit GPS jitter, meters

LOCATION_CONFIGURATIONS = ("staypoint", "gps", "duration", "staypoint_duration")


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class AnomalySpec:
    """How much of a route an injector corrupts (ratio of its interior) and how
    far it moves each cell (dist); the injector called is the anomaly kind."""

    ratio: float
    dist: int

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise DomainError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.dist < 1:
            raise DomainError(f"anomaly dist must be >= 1, got {self.dist}")


# ---------------------------------------------------------------------------
# Pattern-of-life world
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorldConfig:
    n_agents: int
    n_days: int
    n_anomalous_agents: int
    anomalous_days: int
    seed: int
    alt_prob: float  # chance a variable slot uses its alternate venue

    def __post_init__(self) -> None:
        if self.n_anomalous_agents > self.n_agents:
            raise DomainError("n_anomalous_agents cannot exceed n_agents")
        if self.anomalous_days > self.n_days:
            raise DomainError("anomalous_days cannot exceed n_days")
        if self.n_agents < 1 or self.n_days < 1:
            raise DomainError("world needs at least one agent and one day")
        for name in ("n_anomalous_agents", "anomalous_days"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.alt_prob <= 1.0:
            raise DomainError(f"alt_prob must be in [0, 1], got {self.alt_prob}")


@dataclass(frozen=True)
class Slot:
    """One stop in a routine: a primary venue, an optional stochastic alternate,
    and the mean dwell time there."""

    primary: str
    dwell_hours: float
    alternate: str | None = None
    alt_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.dwell_hours <= 0:
            raise DomainError(f"dwell must be positive, got {self.dwell_hours}")


@dataclass
class AgentSchedule:
    agent: str
    routines: dict[str, list[Slot]]  # weekday name -> ordered slots

    def venues_for(self, weekday: str) -> set[str]:
        used = set()
        for slot in self.routines[weekday]:
            used.add(slot.primary)
            if slot.alternate:
                used.add(slot.alternate)
        return used


@dataclass
class Visit:
    staypoint: str
    x: float
    y: float
    dwell_s: float


@dataclass
class PolTrajectory:
    traj_id: str
    agent: str
    weekday: str
    day_index: int
    visits: list[Visit]
    label: str = "normal"
    anomaly_pos: int | None = None      # index into visits of the planted deviation
    replaced_staypoint: str | None = None


@dataclass
class PolCorpus:
    config: WorldConfig
    venues: dict[str, tuple[float, float]]
    schedules: dict[str, AgentSchedule]
    trajectories: list[PolTrajectory]
    anomalous_agents: tuple[str, ...]


def _agent_name(i: int, n_agents: int) -> str:
    return f"agent_{i:0{max(3, len(str(n_agents - 1)))}d}"


def _build_schedule(agent: str, cfg: WorldConfig, rng: np.random.Generator) -> AgentSchedule:
    routines: dict[str, list[Slot]] = {}
    for weekday in WEEKDAYS:
        if weekday in ("Saturday", "Sunday"):
            w_main, w_alt = rng.choice(WEEKEND_VENUES, size=2, replace=False)
            w_second = str(rng.choice([v for v in WEEKEND_VENUES if v not in (w_main, w_alt)]))
            routines[weekday] = [
                Slot(HOME, 9.4),
                Slot(str(w_main), 2.4, alternate=str(w_alt), alt_prob=cfg.alt_prob),
                Slot(w_second, 2.4),
                Slot(HOME, 3.5),
            ]
        else:
            l_main, l_alt = rng.choice(LUNCH_VENUES, size=2, replace=False)
            e_main = str(rng.choice(EVENING_VENUES))
            routines[weekday] = [
                Slot(HOME, 8.4),
                Slot(WORK, 3.6),
                Slot(str(l_main), 0.7, alternate=str(l_alt), alt_prob=cfg.alt_prob),
                Slot(WORK, 3.6),
                Slot(e_main, 1.6),
                Slot(HOME, 2.5),
            ]
    return AgentSchedule(agent=agent, routines=routines)


def _place_venues(rng: np.random.Generator) -> dict[str, tuple[float, float]]:
    g = POL_GRID
    flat = rng.choice(g.n_cols * g.n_rows, size=len(STAYPOINT_CATALOG), replace=False)
    venues = {}
    for name, f in zip(STAYPOINT_CATALOG, flat):
        col, row = int(f % g.n_cols), int(f // g.n_cols)
        venues[name] = ((col + rng.random()) * g.cell_size, (row + rng.random()) * g.cell_size)
    return venues


def gen_pol_corpus(cfg: WorldConfig) -> PolCorpus:
    """One trajectory per agent per day; anomalous agents deviate on their final days.

    On an anomalous day exactly one fixed (non-home, non-variable) routine slot
    is replaced by a venue outside that day's routine, the skip-routine
    anomaly; its slot index is recorded as ground truth.
    """
    world_rng = np.random.default_rng(cfg.seed)
    venues = _place_venues(world_rng)
    anomalous = tuple(
        sorted(
            _agent_name(int(i), cfg.n_agents)
            for i in world_rng.choice(cfg.n_agents, size=cfg.n_anomalous_agents, replace=False)
        )
    )
    schedules: dict[str, AgentSchedule] = {}
    trajectories: list[PolTrajectory] = []
    for idx in range(cfg.n_agents):
        agent = _agent_name(idx, cfg.n_agents)
        rng = np.random.default_rng(cfg.seed ^ (idx + 1))
        schedule = _build_schedule(agent, cfg, rng)
        schedules[agent] = schedule
        is_anomalous_agent = agent in anomalous
        for day in range(cfg.n_days):
            weekday = WEEKDAYS[day % 7]
            slots = schedule.routines[weekday]
            staypoints = [
                slot.alternate
                if slot.alternate is not None and rng.random() < slot.alt_prob
                else slot.primary
                for slot in slots
            ]
            label = "normal"
            anomaly_pos: int | None = None
            replaced: str | None = None
            if is_anomalous_agent and day >= cfg.n_days - cfg.anomalous_days:
                fixed = [
                    i for i, slot in enumerate(slots)
                    if slot.primary != HOME and slot.alternate is None
                ]
                anomaly_pos = int(rng.choice(fixed))
                off_routine = sorted(set(STAYPOINT_CATALOG) - schedule.venues_for(weekday) - {HOME})
                replaced = staypoints[anomaly_pos]
                staypoints[anomaly_pos] = str(rng.choice(off_routine))
                label = "anomalous"
            visits = []
            for i, name in enumerate(staypoints):
                base_dwell = (
                    VENUE_DWELL_HOURS[name]
                    if i == anomaly_pos
                    else slots[i].dwell_hours
                )
                dwell_h = max(0.2, base_dwell + rng.normal(0.0, DWELL_NOISE_H))
                vx, vy = venues[name]
                g = POL_GRID
                x = min(max(vx + rng.normal(0.0, GPS_NOISE_M), 0.0), np.nextafter(g.max_x, -np.inf))
                y = min(max(vy + rng.normal(0.0, GPS_NOISE_M), 0.0), np.nextafter(g.max_y, -np.inf))
                visits.append(Visit(staypoint=name, x=float(x), y=float(y), dwell_s=dwell_h * 3600.0))
            trajectories.append(
                PolTrajectory(
                    traj_id=f"{agent}_day{day:03d}",
                    agent=agent,
                    weekday=weekday,
                    day_index=day,
                    visits=visits,
                    label=label,
                    anomaly_pos=anomaly_pos,
                    replaced_staypoint=replaced,
                )
            )
    return PolCorpus(
        config=cfg,
        venues=venues,
        schedules=schedules,
        trajectories=trajectories,
        anomalous_agents=anomalous,
    )


def pol_location_tokens(traj: PolTrajectory, configuration: str) -> list[Token]:
    """Tokenize one day's visits under a location configuration.

    staypoint: venue-name tokens; gps: POL_GRID cell tokens of the recorded
    coordinates; duration: 1-hour dwell buckets; staypoint_duration: venue and
    bucket interleaved.
    """
    if configuration not in LOCATION_CONFIGURATIONS:
        raise DomainError(
            f"configuration must be one of {LOCATION_CONFIGURATIONS}, got {configuration!r}"
        )
    tokens: list[Token] = []
    for visit in traj.visits:
        if configuration in ("staypoint", "staypoint_duration"):
            tokens.append(Token("staypoint", visit.staypoint))
        if configuration == "gps":
            c = to_cell((visit.x, visit.y), POL_GRID)
            tokens.append(Token("cell", f"{c.col},{c.row}"))
        if configuration in ("duration", "staypoint_duration"):
            tokens.append(bucket_duration(visit.dwell_s))
    return tokens


# ---------------------------------------------------------------------------
# Route corpus
# ---------------------------------------------------------------------------

def _sample_od_pairs(
    g: GridSpec, n_pairs: int, rng: np.random.Generator
) -> list[tuple[CellId, CellId]]:
    min_sep = max(4, (g.n_cols + g.n_rows) // 4)
    if (g.n_cols - 1) + (g.n_rows - 1) < min_sep:
        raise DomainError(
            f"a {g.n_cols}x{g.n_rows} grid has no OD pair {min_sep} cells apart; use a larger grid"
        )
    pairs = []
    while len(pairs) < n_pairs:
        src = CellId(int(rng.integers(0, g.n_cols)), int(rng.integers(0, g.n_rows)))
        dst = CellId(int(rng.integers(0, g.n_cols)), int(rng.integers(0, g.n_rows)))
        if abs(src.col - dst.col) + abs(src.row - dst.row) >= min_sep:
            pairs.append((src, dst))
    return pairs


def _staircase(src: CellId, dst: CellId, rng: np.random.Generator, noise: float) -> list[CellId]:
    cx, cy = src
    rem_x = dst.col - cx
    rem_y = dst.row - cy
    cells = [src]
    while rem_x != 0 or rem_y != 0:
        if rem_x != 0 and rem_y != 0:
            if noise > 0:
                take_x = rng.random() < abs(rem_x) / (abs(rem_x) + abs(rem_y))
            else:
                take_x = abs(rem_x) >= abs(rem_y)
        else:
            take_x = rem_x != 0
        if take_x:
            cx += 1 if rem_x > 0 else -1
            rem_x += -1 if rem_x > 0 else 1
        else:
            cy += 1 if rem_y > 0 else -1
            rem_y += -1 if rem_y > 0 else 1
        cells.append(CellId(cx, cy))
    return cells


def _local_perpendicular(cells: list[CellId], i: int) -> tuple[int, int]:
    """Unit direction perpendicular to the dominant travel axis around index i."""
    lo = max(i - 1, 0)
    hi = min(i + 1, len(cells) - 1)
    dx = cells[hi].col - cells[lo].col
    dy = cells[hi].row - cells[lo].row
    return (0, 1) if abs(dx) >= abs(dy) else (1, 0)


def gen_route_corpus(
    g: GridSpec,
    n_od_pairs: int,
    routes_per_pair: int,
    noise: float,
    seed: int,
) -> list[list[CellId]]:
    """Noisy lattice routes, routes_per_pair per origin/destination pair.

    Endpoints are exact. With noise 0 every route of a pair is the identical
    canonical shortest staircase; otherwise the staircase interleaving is
    random and interior cells are independently displaced one cell
    perpendicular to the local travel direction with probability ``noise``.
    Routes are returned grouped by pair, pair 0 first.
    """
    if not 0.0 <= noise <= 1.0:
        raise DomainError(f"noise must be in [0, 1], got {noise}")
    if n_od_pairs < 1 or routes_per_pair < 1:
        raise DomainError(
            f"need at least one OD pair and one route per pair, got {n_od_pairs} and {routes_per_pair}"
        )
    od_pairs = _sample_od_pairs(g, n_od_pairs, np.random.default_rng(seed))
    routes: list[list[CellId]] = []
    for p, (src, dst) in enumerate(od_pairs):
        for r in range(routes_per_pair):
            rng = np.random.default_rng(seed ^ (p * routes_per_pair + r + 1))
            cells = _staircase(src, dst, rng, noise)
            if noise > 0:
                for i in range(1, len(cells) - 1):
                    if rng.random() < noise:
                        direction = _local_perpendicular(cells, i)
                        sign = 1 if rng.random() < 0.5 else -1
                        cells[i] = shift_cell(
                            cells[i], 1, (direction[0] * sign, direction[1] * sign), g
                        ).cell
            routes.append(cells)
    return routes


# ---------------------------------------------------------------------------
# Anomaly injectors
# ---------------------------------------------------------------------------

_AXIS_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def inject_random_shift(
    t: list[CellId], spec: AnomalySpec, g: GridSpec, seed: int
) -> list[CellId]:
    """Displace round(ratio * interior) interior cells, each dist cells along a
    random axis direction; endpoints and length are preserved."""
    if len(t) < 3:
        raise DomainError(f"trajectory too short to perturb (length {len(t)} < 3)")
    interior = len(t) - 2
    k = round_half_up(spec.ratio * interior)
    out = list(t)
    if k == 0:
        return out
    rng = np.random.default_rng(seed)
    positions = rng.choice(np.arange(1, len(t) - 1), size=k, replace=False)
    for pos in sorted(int(p) for p in positions):
        direction = _AXIS_DIRECTIONS[int(rng.integers(0, 4))]
        out[pos] = shift_cell(out[pos], spec.dist, direction, g).cell
    return out


def inject_detour(t: list[CellId], spec: AnomalySpec, g: GridSpec, seed: int) -> list[CellId]:
    """Translate a contiguous window of round(ratio * interior) interior cells
    dist cells perpendicular to the window's dominant travel axis.

    Endpoints and length are preserved: the window is rigidly displaced and the
    single transitions at its edges connect it back to the original path. An
    empty window leaves the input unchanged (with a warning).
    """
    if len(t) < 5:
        raise DomainError(f"trajectory too short for a detour (length {len(t)} < 5)")
    interior = len(t) - 2
    w = round_half_up(spec.ratio * interior)
    out = list(t)
    if w == 0:
        warnings.warn("detour window is empty; trajectory returned unchanged")
        return out
    rng = np.random.default_rng(seed)
    start = int(rng.integers(1, len(t) - w))  # window stays within the interior
    end = start + w
    dx = t[end - 1].col - t[start].col
    dy = t[end - 1].row - t[start].row
    if w == 1:
        dx = t[min(end, len(t) - 1)].col - t[start - 1].col
        dy = t[min(end, len(t) - 1)].row - t[start - 1].row
    perp = (0, 1) if abs(dx) >= abs(dy) else (1, 0)
    sign = 1 if rng.random() < 0.5 else -1

    def displaced(s: int) -> tuple[list[CellId], bool]:
        cells, clamped = [], False
        for i in range(start, end):
            res = shift_cell(t[i], spec.dist, (perp[0] * s, perp[1] * s), g)
            cells.append(res.cell)
            clamped |= res.clamped
        return cells, clamped

    window, clamped = displaced(sign)
    if clamped:
        alt_window, alt_clamped = displaced(-sign)
        if not alt_clamped:
            window = alt_window
    out[start:end] = window
    return out
