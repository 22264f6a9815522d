"""Combinatorial pieces: incidence graphs of coverings, first-fit coloring
of bounded-valence graphs, separated nets, and bilipschitz restriction
estimates for interior maps on nets."""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .maps import InteriorMap
from .model import CurvatureScale, K1, _dist_raw
from .sampling import rng_from, sample_ball_hyperbolic


@dataclass
class Graph:
    """Undirected simple graph held as adjacency lists."""

    vertex_count: int
    adjacency: list = field(default_factory=list)

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        adj = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise GeometryError("self-loops are not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GeometryError("edge endpoint out of range")
            adj[u].add(v)
            adj[v].add(u)
        return cls(vertex_count=vertex_count, adjacency=[sorted(s) for s in adj])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v


@dataclass
class Coloring:
    """Proper vertex coloring with colors in 1..n_colors."""

    colors: list
    n_colors: int

    def is_proper_for(self, g: Graph) -> bool:
        return all(self.colors[u] != self.colors[v] for u, v in g.edges())


def greedy_color(g: Graph) -> Coloring:
    """First-fit coloring in vertex order; never needs more than
    max-degree + 1 colors."""
    colors = [0] * g.vertex_count
    for v in range(g.vertex_count):
        taken = {colors[u] for u in g.adjacency[v] if colors[u] != 0}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(colors=colors, n_colors=max(colors, default=0))


def incidence_graph(sets, touch_radius: float, k: CurvatureScale = K1) -> Graph:
    """Graph on point sets with edges between pairs within touch_radius.

    Intersection of covering elements is relaxed to small positive distance
    between their sampled point sets.
    """
    arrays = []
    for s in sets:
        arr = np.asarray(s, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[0] == 0:
            raise GeometryError("covering elements must be nonempty")
        arrays.append(arr)
    edges = []
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            d = _dist_raw(k.lam, arrays[i][:, None, :], arrays[j][None, :, :])
            if d.min() <= touch_radius:
                edges.append((i, j))
    return Graph.from_edges(len(arrays), edges)


@dataclass
class Net:
    """a-separated point set with empirical covering radius b."""

    points: np.ndarray
    separation: float
    covering_radius: float
    region: str = ""

    def __post_init__(self):
        if self.points.shape[0] == 0:
            raise GeometryError("a net needs at least one point")


def greedy_net(radius: float, separation: float, *, n: int = 2,
               k: CurvatureScale = K1, seed=0, sample_count: int = 4096) -> Net:
    """Maximal separated subset of a dense sample of the ball of the given
    hyperbolic radius, by greedy insertion in sample order."""
    if separation <= 0.0:
        raise GeometryError("separation must be positive")
    if radius > 10.0:
        raise GeometryError("net regions are desk scale: radius <= 10")
    rng = rng_from(seed)
    sample = sample_ball_hyperbolic(rng, sample_count, n, k.lam, radius)
    sample[0] = 0.0
    kept = [sample[0]]
    for pt in sample[1:]:
        d = _dist_raw(k.lam, np.asarray(kept), pt)
        if np.min(d) >= separation:
            kept.append(pt)
    kept = np.asarray(kept)
    cover = float(np.max(np.min(
        _dist_raw(k.lam, sample[:, None, :], kept[None, :, :]), axis=1)))
    return Net(points=kept, separation=separation, covering_radius=cover,
               region=f"ball(radius={radius}, n={n}, lam={k.lam})")


def net_bilipschitz_estimate(f: InteriorMap, net: Net,
                             k: CurvatureScale = K1):
    """(min, max) over distinct net pairs of d(f x, f y) / d(x, y)."""
    pts = net.points
    if pts.shape[0] < 2:
        raise GeometryError("bilipschitz estimate needs at least two net points")
    imgs = f.apply_raw(pts)
    d_src = _dist_raw(k.lam, pts[:, None, :], pts[None, :, :])
    d_img = _dist_raw(k.lam, imgs[:, None, :], imgs[None, :, :])
    iu = np.triu_indices(pts.shape[0], 1)
    ratios = d_img[iu] / d_src[iu]
    return float(ratios.min()), float(ratios.max())


# ---------------------------------------------------------------------------
# file formats: edge-list text for graphs, JSON arrays for colorings
# ---------------------------------------------------------------------------

def read_edge_list(path) -> Graph:
    edges = []
    top = -1
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = (int(tok) for tok in line.split())
            edges.append((u, v))
            top = max(top, u, v)
    return Graph.from_edges(top + 1, edges)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def write_coloring(c: Coloring, path) -> None:
    with open(path, "w") as fh:
        json.dump(c.colors, fh)
