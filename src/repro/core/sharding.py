"""Sharding functions: assigning tasks of a group launch to shards.

A sharding function (paper §1, §4) maps each point of a launch index space to
the shard that will perform its dependence analysis.  The only correctness
requirements are that it is a *function* (one shard per point) and *total*
(every point gets a shard); for performance it should balance load and place
analysis near where tasks execute.  Because sharding functions are pure,
their results are memoized (§4: "Because sharding functions are pure, we can
memoize their results").

Sharding functions are registered with stable integer ids; the fence-elision
proof in the coarse analysis compares *ids*, mirroring Legion which reasons
about "names of the projection and sharding functions" symbolically.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Tuple

__all__ = ["ShardingFunction", "CYCLIC", "BLOCKED", "HASHED", "MORTON",
           "ShardingRegistry", "cyclic_shard", "blocked_shard",
           "hashed_shard", "morton_shard"]


def cyclic_shard(point: Hashable, launch_size: int, num_shards: int) -> int:
    """Round-robin assignment (Legion's sharding function ID 0)."""
    return _linearize(point) % num_shards


def blocked_shard(point: Hashable, launch_size: int, num_shards: int) -> int:
    """Contiguous blocks of points per shard (tiled sharding)."""
    idx = _linearize(point)
    if launch_size <= 0:
        return 0
    return min(idx * num_shards // launch_size, num_shards - 1)


def hashed_shard(point: Hashable, launch_size: int, num_shards: int) -> int:
    """Deterministic hash-based scatter (stable across processes)."""
    x = _linearize(point)
    # SplitMix64 finalizer: cheap, deterministic, well mixed.
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x % num_shards


def morton_shard(point: Hashable, launch_size: int, num_shards: int) -> int:
    """Space-filling-curve sharding for 2-D launch domains.

    Interleaves the bits of (x, y) launch points (Morton/Z-order) before
    blocking, so shards own spatially compact clusters of tiles — better
    nearest-neighbor locality than row-major blocking on wide 2-D grids.
    1-D points fall back to blocked sharding.
    """
    if not (isinstance(point, tuple) and len(point) == 2):
        return blocked_shard(point, launch_size, num_shards)
    x, y = int(point[0]), int(point[1])
    code = 0
    for bit in range(16):
        code |= ((x >> bit) & 1) << (2 * bit)
        code |= ((y >> bit) & 1) << (2 * bit + 1)
    return min(code * num_shards // max(launch_size, 1), num_shards - 1) \
        if launch_size > 0 else code % num_shards


# Pure function of the point, so memoizable forever (same argument as the
# per-ShardingFunction result cache below; tuple points recur every launch).
_linearize_cache: Dict[Hashable, int] = {}


def _linearize(point: Hashable) -> int:
    """Map a launch point (int or int tuple) to a non-negative integer."""
    if isinstance(point, int):
        return point
    hit = _linearize_cache.get(point)
    if hit is not None:
        return hit
    if isinstance(point, tuple):
        # Interleave-free mixed-radix linearization is unnecessary here: we
        # only need determinism and rough balance, so fold coordinates.
        out = 0
        for c in point:
            out = out * 1_000_003 + int(c)
        out &= 0x7FFFFFFFFFFFFFFF
        if len(_linearize_cache) < (1 << 20):
            _linearize_cache[point] = out
        return out
    raise TypeError(f"unsupported launch point {point!r}")


class ShardingFunction:
    """A registered, memoized sharding function with a stable id."""

    def __init__(self, sid: int, name: str,
                 fn: Callable[[Hashable, int, int], int]):
        self.sid = sid
        self.name = name
        self._fn = fn
        self._cache: Dict[Tuple[Hashable, int, int], int] = {}
        self.invocations = 0      # raw fn calls (misses), for overhead accounting

    def __call__(self, point: Hashable, launch_size: int,
                 num_shards: int) -> int:
        key = (point, launch_size, num_shards)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.invocations += 1
        shard = self._fn(point, launch_size, num_shards)
        if not 0 <= shard < num_shards:
            raise ValueError(
                f"sharding function {self.name} returned shard {shard} "
                f"outside [0, {num_shards})")
        self._cache[key] = shard
        return shard

    def owned_points(self, points, num_shards: int, shard: int):
        """The subset of ``points`` this shard owns (fine stage, Fig. 9 l.3)."""
        pts = list(points)
        n = len(pts)
        return [p for p in pts if self(p, n, num_shards) == shard]

    def __hash__(self) -> int:
        return hash(self.sid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShardingFunction) and other.sid == self.sid

    def __repr__(self) -> str:  # pragma: no cover
        return f"ShardingFunction({self.sid}:{self.name})"


class ShardingRegistry:
    """Mapper-visible registry of sharding functions by id."""

    def __init__(self) -> None:
        self._by_id: Dict[int, ShardingFunction] = {}

    def register(self, sid: int, name: str,
                 fn: Callable[[Hashable, int, int], int]) -> ShardingFunction:
        if sid in self._by_id:
            raise ValueError(f"sharding id {sid} already registered")
        sf = ShardingFunction(sid, name, fn)
        self._by_id[sid] = sf
        return sf

    def __getitem__(self, sid: int) -> ShardingFunction:
        return self._by_id[sid]

    def __contains__(self, sid: int) -> bool:
        return sid in self._by_id

    @classmethod
    def with_builtins(cls) -> "ShardingRegistry":
        reg = cls()
        reg.register(0, "cyclic", cyclic_shard)
        reg.register(1, "blocked", blocked_shard)
        reg.register(2, "hashed", hashed_shard)
        reg.register(3, "morton", morton_shard)
        return reg


# Module-level builtins matching Legion's convention that ID 0 is cyclic.
_builtin = ShardingRegistry.with_builtins()
CYCLIC: ShardingFunction = _builtin[0]
BLOCKED: ShardingFunction = _builtin[1]
HASHED: ShardingFunction = _builtin[2]
MORTON: ShardingFunction = _builtin[3]
