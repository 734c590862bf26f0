"""Geographic grid, tenants, traffic demand and deployed-network state.

The scenario is the simulator's ground truth: a rectangular pixel grid,
per-tenant demand models, the candidate site pool and the currently
deployed small cells.  Everything here is immutable after construction;
updates produce new objects.

Each dataclass checks its own fields on construction and raises
:class:`InvariantError`, which names every broken rule at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "ScenarioError",
    "InvariantError",
    "GridSpec",
    "pixel_positions",
    "CandidateSiteSet",
    "select_candidate_sites",
    "Hotspot",
    "TenantProfile",
    "ServingMap",
    "SmallCell",
    "NetworkState",
]


class ScenarioError(ValueError):
    """A scenario that cannot be used: unreadable, unparsable or invalid."""


class InvariantError(ScenarioError):
    """Broken scenario invariants, one ``section.rule: detail`` line each."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def require(*rules):
    """Raise InvariantError naming every ``(holds, name, detail)`` rule that
    does not hold."""
    broken = [f"{name}: {detail}" for holds, name, detail in rules if not holds]
    if broken:
        raise InvariantError(broken)


def require_fields(obj, *rules):
    """``require`` for one-field rules ``(name, field, test, expected)``; a
    broken one reads ``name: field must be expected, got value``."""
    require(*((False, name, f"{field} must be {expected}, got {getattr(obj, field)!r}")
              for name, field, test, expected in rules if not test(getattr(obj, field))))


def is_int(x) -> bool:
    """A 64-bit integer (booleans are not numbers here)."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and -2 ** 63 <= x < 2 ** 63)


def is_real(x) -> bool:
    """A finite float or a 64-bit integer."""
    return is_int(x) or isinstance(x, (float, np.floating)) and math.isfinite(x)


def positive(x) -> bool:
    return is_real(x) and x > 0


def nonnegative(x) -> bool:
    return is_real(x) and x >= 0


def in_unit(x) -> bool:
    return is_real(x) and 0 <= x <= 1


def is_count(x) -> bool:
    """An integer of at least 1."""
    return is_int(x) and x >= 1


@dataclass(frozen=True)
class GridSpec:
    """Rectangular raster of pixels covering the planning area.

    The pixel count per axis is ``ceil(dimension / resolution_m)`` and pixel
    coordinates sit at the centers of the cells of a uniform grid fitted to
    the area, so every pixel lies strictly inside the bounds.  The effective
    pixel pitch is ``dimension / count`` (never larger than ``resolution_m``).
    Pixel indexing is row-major: ``index = row * nx + col``.
    """

    width_m: float
    height_m: float
    resolution_m: float

    def __post_init__(self):
        require_fields(self, ("grid.width_positive", "width_m", positive, "> 0"),
                       ("grid.height_positive", "height_m", positive, "> 0"),
                       ("grid.resolution_positive", "resolution_m", positive, "> 0"))

    @property
    def nx(self) -> int:
        return math.ceil(self.width_m / self.resolution_m)

    @property
    def ny(self) -> int:
        return math.ceil(self.height_m / self.resolution_m)

    @property
    def num_pixels(self) -> int:
        return self.nx * self.ny

    def pixel_xy(self, pixel: int) -> tuple[float, float]:
        """Center coordinates (x_m, y_m) of one pixel."""
        if not 0 <= pixel < self.num_pixels:
            raise ValueError(f"pixel {pixel} out of range")
        row, col = divmod(pixel, self.nx)
        return ((col + 0.5) * self.width_m / self.nx,
                (row + 0.5) * self.height_m / self.ny)


@lru_cache(maxsize=32)
def pixel_positions(grid: GridSpec) -> np.ndarray:
    """(num_pixels, 2) array of pixel center coordinates, row-major order."""
    cols = (np.arange(grid.nx) + 0.5) * grid.width_m / grid.nx
    rows = (np.arange(grid.ny) + 0.5) * grid.height_m / grid.ny
    xx, yy = np.meshgrid(cols, rows)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    pos.flags.writeable = False
    return pos


@dataclass(frozen=True)
class CandidateSiteSet:
    """Pixels where a small cell may be deployed (backhaul/site constraints)."""

    site_pixels: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self):
        pixels = self.site_pixels
        ints = isinstance(pixels, tuple) and all(is_int(p) and p >= 0 for p in pixels)
        require((ints, "candidate_sites.pixels_integer",
                 "pixels must be a list of non-negative pixel indices"),
                (not ints or len(set(pixels)) == len(pixels),
                 "candidate_sites.distinct", "duplicate candidate pixels"),
                (not ints or len(pixels) > 0, "candidate_sites.nonempty",
                 "no candidate sites"))

    def __len__(self) -> int:
        return len(self.site_pixels)


def select_candidate_sites(grid: GridSpec, fraction: float, seed: int) -> CandidateSiteSet:
    """Draw ``round(fraction * num_pixels)`` distinct pixels, reproducibly.

    The draw is uniform without replacement from a generator seeded with
    ``seed``; the result is returned in ascending pixel order so equal seeds
    give identical sets and ``fraction=1.0`` is the full grid in index order.
    """
    require((positive(fraction) and fraction <= 1, "candidate_sites.fraction_range",
             f"fraction must be in (0, 1], got {fraction!r}"),
            (is_int(seed) and seed >= 0, "candidate_sites.seed_nonnegative",
             f"seed must be an integer >= 0, got {seed!r}"))
    n = int(round(fraction * grid.num_pixels))
    if n >= grid.num_pixels:
        pixels = np.arange(grid.num_pixels)
    else:
        rng = np.random.default_rng(seed)
        pixels = np.sort(rng.choice(grid.num_pixels, size=n, replace=False))
    return CandidateSiteSet(tuple(int(p) for p in pixels), seed=seed)


@dataclass(frozen=True)
class Hotspot:
    """One Gaussian bump of traffic demand."""

    x_m: float
    y_m: float
    spread_m: float
    peak_mbps: float    # per-pixel demand at the hotspot center

    def __post_init__(self):
        require_fields(self, ("tenant.hotspot_x_real", "x_m", is_real, "a finite number"),
                       ("tenant.hotspot_y_real", "y_m", is_real, "a finite number"),
                       ("tenant.hotspot_spread_positive", "spread_m", positive, "> 0"),
                       ("tenant.hotspot_peak_nonnegative", "peak_mbps", nonnegative,
                        ">= 0"))


@dataclass(frozen=True)
class TenantProfile:
    """A communications provider sharing the infrastructure under an SLA.

    ``temporal_profile`` holds per-time-step weights normalized so the peak
    is exactly 1; the spatial demand model is a sum of Gaussian hotspots on
    top of a uniform floor.
    """

    tenant_id: str
    contracted_capacity_mbps: float
    temporal_profile: tuple[float, ...] = (1.0,)
    hotspots: tuple[Hotspot, ...] = ()
    uniform_floor_mbps: float = 0.0

    def __post_init__(self):
        w = self.temporal_profile
        weights = isinstance(w, tuple) and len(w) > 0 and all(map(in_unit, w))
        require_fields(
            self,
            ("tenant.id_string", "tenant_id", lambda x: isinstance(x, str) and x != "",
             "a non-empty string"),
            ("tenant.contracted_nonnegative", "contracted_capacity_mbps", nonnegative,
             ">= 0"),
            ("tenant.temporal_weights_range", "temporal_profile", lambda _: weights,
             "a non-empty list of weights in [0, 1]"),
            ("tenant.temporal_peak_one", "temporal_profile",
             lambda _: not weights or max(w) == 1.0, "peaked at exactly 1"),
            ("tenant.hotspots_list", "hotspots", lambda hs: isinstance(hs, tuple)
             and all(isinstance(h, Hotspot) for h in hs), "a list of hotspots"),
            ("tenant.floor_nonnegative", "uniform_floor_mbps", nonnegative, ">= 0"))

    def temporal_weight(self, t: int) -> float:
        return self.temporal_profile[t % len(self.temporal_profile)]

    def spatial_demand(self, grid: GridSpec) -> np.ndarray:
        """Per-pixel demand (Mbps) at the temporal peak."""
        pos = pixel_positions(grid)
        out = np.full(grid.num_pixels, float(self.uniform_floor_mbps))
        for h in self.hotspots:
            d2 = (pos[:, 0] - h.x_m) ** 2 + (pos[:, 1] - h.y_m) ** 2
            out += h.peak_mbps * np.exp(-d2 / (2.0 * h.spread_m ** 2))
        return out


@dataclass(frozen=True)
class ServingMap:
    """Assignment of every pixel to exactly one deployed cell.

    ``pixel_col`` is each pixel's position in ``cell_ids``, as the smallest
    unsigned integer type that holds it; it is derived from ``pixel_cell``
    when not given.
    """

    cell_ids: tuple[int, ...]
    pixel_cell: np.ndarray      # (num_pixels,) of cell ids
    pixel_col: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.pixel_cell)
        arr.flags.writeable = False
        object.__setattr__(self, "pixel_cell", arr)
        col = self.pixel_col
        if col is None:
            ids = np.asarray(self.cell_ids, dtype=np.int64)
            rank = np.argsort(ids)
            pos = np.searchsorted(ids[rank], arr)
            if arr.size and (pos.max() >= ids.size or not np.array_equal(ids[rank[pos]], arr)):
                raise ValueError("pixel_cell holds a cell id that is not in cell_ids")
            col = rank[pos]
        col = np.asarray(col).astype(np.min_scalar_type(len(self.cell_ids)))
        col.flags.writeable = False
        object.__setattr__(self, "pixel_col", col)

    @cached_property
    def cell_pixels(self) -> dict[int, np.ndarray]:
        """Ascending indices of the pixels each cell serves, in ``cell_ids``
        order; empty for a cell that serves none.  Built once per map from
        one stable argsort of ``pixel_col``, whose small unsigned type makes
        it a radix sort; read-only.

        ``a[cell_pixels[c]]`` holds the elements of ``a[pixel_cell == c]`` in
        the same order, so per-cell sums are bit-identical to the mask form
        while one aggregation over all cells costs O(P) instead of O(P*N).
        """
        col = self.pixel_col
        order = np.argsort(col, kind="stable")
        order.flags.writeable = False
        bounds = np.arange(1, len(self.cell_ids) + 1, dtype=col.dtype)
        ends = np.searchsorted(col[order], bounds).tolist()
        return {cid: order[a:b] for cid, a, b in zip(self.cell_ids, [0] + ends, ends)}

    def cell_sums(self, values: np.ndarray) -> dict[int, float]:
        """Sum of a per-pixel raster over each cell's pixels, in ``cell_ids``
        order; bit-identical to summing ``values[pixel_cell == c]``."""
        return {cid: float(values[pixels].sum()) for cid, pixels in self.cell_pixels.items()}


@dataclass(frozen=True)
class SmallCell:
    """One deployed small cell: site pixel, channel set, transmit power."""

    cell_id: int
    site_pixel: int
    channels: tuple[int, ...]
    power_dbm: float = 24.0
    power_fixed: bool = False

    def __post_init__(self):
        require_fields(
            self, ("cells.id_integer", "cell_id", is_int, "an integer"),
            ("cells.site_pixel_integer", "site_pixel", lambda p: is_int(p) and p >= 0,
             "an integer >= 0"),
            ("cells.channels_valid", "channels", lambda ch: isinstance(ch, (tuple, list))
             and len(ch) > 0 and all(is_int(c) and c >= 0 for c in ch)
             and len(set(ch)) == len(ch), "a non-empty list of distinct channel indices"),
            ("cells.power_real", "power_dbm", is_real, "a finite number"))
        object.__setattr__(self, "channels", tuple(sorted(int(c) for c in self.channels)))


@dataclass(frozen=True)
class NetworkState:
    """Deployed cells at one point in time; functional updates only."""

    cells: tuple[SmallCell, ...]

    def __post_init__(self):
        cells = tuple(sorted(self.cells, key=lambda c: c.cell_id))
        ids = [c.cell_id for c in cells]
        sites = [c.site_pixel for c in cells]
        require((len(set(ids)) == len(ids), "cells.ids_distinct", "duplicate cell ids"),
                (len(set(sites)) == len(sites), "cells.sites_distinct",
                 "two cells share a site pixel"))
        object.__setattr__(self, "cells", cells)

    @property
    def cell_ids(self) -> tuple[int, ...]:
        return tuple(c.cell_id for c in self.cells)

    @property
    def site_pixels(self) -> tuple[int, ...]:
        return tuple(c.site_pixel for c in self.cells)

    def cell(self, cell_id: int) -> SmallCell:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        raise ValueError(f"unknown cell id {cell_id}")

    def add_cell(self, cell: SmallCell) -> "NetworkState":
        return replace(self, cells=self.cells + (cell,))

    def remove_cell(self, cell_id: int) -> "NetworkState":
        self.cell(cell_id)
        return replace(self, cells=tuple(c for c in self.cells if c.cell_id != cell_id))

    def add_channel(self, cell_id: int, channel: int) -> "NetworkState":
        c = self.cell(cell_id)
        if channel in c.channels:
            raise ValueError(f"cell {cell_id} already holds channel {channel}")
        return self._swap(replace(c, channels=c.channels + (channel,)))

    def remove_channel(self, cell_id: int, channel: int) -> "NetworkState":
        c = self.cell(cell_id)
        if channel not in c.channels:
            raise ValueError(f"cell {cell_id} does not hold channel {channel}")
        return self._swap(replace(c, channels=tuple(x for x in c.channels if x != channel)))

    def _swap(self, cell: SmallCell) -> "NetworkState":
        return replace(self, cells=tuple(cell if c.cell_id == cell.cell_id else c
                                         for c in self.cells))
