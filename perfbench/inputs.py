"""Seeded inputs for the benchmark workloads.

Every input comes from a fixed pool, drawn once from stated ranges with a
small SplitMix64 generator written here, so the pools (and the reference
fingerprints stored for them) do not depend on numpy's random streams.  The
run seed only chooses which pool entries a run uses and in what order.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

_MASK = (1 << 64) - 1

# Pool seeds are fixed: the reference fingerprints were taken on these pools.
_POOL_SEED = 0x5EED_F0CA1

GRID_SURFACES = ("graph_generic", "helicoid", "dini", "enneper", "scherk")
MESH_SURFACES = ("graph_generic", "dini")
GRID_VARIANTS = 6            # sub-box/parameter variants per grid surface
MESH_VARIANTS = 4            # ... per mesh surface
GRID_N = 40                  # grid_generic and mesh_export sample 40 x 40
EVAL_POOL = 32768            # eval_points draws; a run never repeats one

# Stated ranges.  A variant's box covers BOX_FRACTION of each side of the
# gallery domain, at a uniformly drawn offset; parameters are uniform.
BOX_FRACTION = (0.6, 0.9)
PARAM_RANGES: Dict[str, Dict[str, Tuple[float, float]]] = {
    "helicoid": {"c": (0.5, 2.0)},
    "dini": {"a": (0.8, 1.2), "b": (0.1, 0.3)},
}

# Mesh requests, as in ``focalnet mesh --central 1,2 --nets 13,14,17,18``.
MESH_CENTRAL = (1, 2)
MESH_NETS = ("13", "14", "17", "18")


class SplitMix:
    """SplitMix64: tiny, fully specified, identical on every platform."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next() >> 11) * 2.0 ** -53)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffled(self, n: int) -> List[int]:
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            order[i], order[j] = order[j], order[i]
        return order


@dataclass(frozen=True)
class Variant:
    """One grid input: a gallery surface on a sub-box with set parameters."""
    surface: str
    box: Tuple[float, float, float, float]      # u_min, u_max, v_min, v_max
    params: Tuple[Tuple[str, float], ...]


def _variants(fn, surfaces, count: int, salt: int) -> Dict[str, List[Variant]]:
    rng = SplitMix(_POOL_SEED ^ salt)
    out: Dict[str, List[Variant]] = {}
    for name in surfaces:
        dom = fn.gallery(name).domain
        out[name] = []
        for _ in range(count):
            box = []
            for lo, hi in ((dom.u_min, dom.u_max), (dom.v_min, dom.v_max)):
                width = (hi - lo) * rng.uniform(*BOX_FRACTION)
                start = rng.uniform(lo, hi - width)
                box += [start, start + width]
            params = tuple((p, rng.uniform(lo, hi)) for p, (lo, hi)
                           in sorted(PARAM_RANGES.get(name, {}).items()))
            out[name].append(Variant(name, tuple(box), params))
    return out


def grid_variants(fn) -> Dict[str, List[Variant]]:
    return _variants(fn, GRID_SURFACES, GRID_VARIANTS, 0x6121D)


def mesh_variants(fn) -> Dict[str, List[Variant]]:
    return _variants(fn, MESH_SURFACES, MESH_VARIANTS, 0x3E5A)


def eval_pool(fn) -> List[Tuple[str, float, float]]:
    """(surface, u, v) draws: surface uniform over the whole gallery, (u, v)
    uniform over its full domain box."""
    names = fn.gallery_names()
    rng = SplitMix(_POOL_SEED ^ 0xE7A1)
    pool = []
    for _ in range(EVAL_POOL):
        name = names[rng.below(len(names))]
        dom = fn.gallery(name).domain
        pool.append((name, rng.uniform(dom.u_min, dom.u_max),
                     rng.uniform(dom.v_min, dom.v_max)))
    return pool


def compile_variant(fn, var: Variant):
    sd = fn.gallery(var.surface)
    box = fn.sdl.Box(*var.box)
    sd = type(sd)(sd.name, sd.params, sd.x, sd.y, sd.z, box)
    return fn.compile_surface(sd, dict(var.params))


def inputs_digest(obj) -> str:
    """Digest of a pool, stored with the reference to catch drift."""
    text = json.dumps(obj, default=lambda o: o.__dict__, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_order(seed: int, salt: int) -> SplitMix:
    return SplitMix((seed * 0x9E3779B1) ^ salt)


def cycle_variants(seed: int, surfaces, count: int) -> Iterator[Tuple[str, int]]:
    """Endless (surface, variant index) sequence: surfaces in fixed order,
    variant drawn by the run seed."""
    rng = run_order(seed, 0xC7C1E)
    while True:
        for name in surfaces:
            yield name, rng.below(count)


def shuffled_pool(seed: int, surfaces, count: int) -> Iterator[Tuple[str, int]]:
    """Endless passes over every (surface, variant index), each pass in an
    order drawn by the run seed."""
    rng = run_order(seed, 0x5A1E)
    pool = [(name, i) for name in surfaces for i in range(count)]
    while True:
        for k in rng.shuffled(len(pool)):
            yield pool[k]
