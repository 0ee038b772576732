"""Network geometries, fading statistics, and relay numbering schemes.

Distances are normalized so the source-destination separation is 1.  Channel
powers are exponentially distributed with rate lambda_ij = d_ij^p_a, i.e.
mean power d_ij^-p_a.  Node order in every matrix follows the package
convention: source 0, relays 1..N, destination N+1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .rate_model import LinkCapacityMatrix

DEFAULT_PATH_LOSS_EXPONENT = 2.5

# Pool-independent stream key for the destination node, so that extending a
# relay pool never re-keys the links of the nodes already present.
_DEST_STREAM_KEY = 0xFFFFFFFF


class NumberingScheme(enum.Enum):
    AVERAGE_DESCENDING = "average_descending"
    AVERAGE_LINEAR = "average_linear"
    INSTANTANEOUS_SOURCE_RELAY = "instantaneous_source_relay"
    INSTANTANEOUS_RELAY_RELAY = "instantaneous_relay_relay"
    RANDOM = "random"


@dataclass(frozen=True)
class Topology:
    """Node coordinates (source first, destination last) and path-loss exponent."""

    positions: np.ndarray
    p_a: float = DEFAULT_PATH_LOSS_EXPONENT
    layout: str = "custom"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ValueError(f"positions must be (n >= 2, 2), got {pos.shape}")
        if not self.p_a > 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.p_a}")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_relays(self) -> int:
        return self.positions.shape[0] - 2

    @property
    def relay_positions(self) -> np.ndarray:
        return self.positions[1:-1]


@dataclass(frozen=True)
class FadingParams:
    """Exponential rate parameters lambda_ij = d_ij^p_a per node pair."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        n = lam.shape[0]
        if lam.ndim != 2 or lam.shape != (n, n):
            raise ValueError(f"lambda matrix must be square, got {lam.shape}")
        off = ~np.eye(n, dtype=bool)
        if np.any(lam[off] <= 0):
            raise ValueError("off-diagonal lambda entries must be positive")
        if not np.allclose(lam, lam.T):
            raise ValueError("lambda matrix must be symmetric")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def n_relays(self) -> int:
        return self.lam.shape[0] - 2

    @property
    def mean_power(self) -> np.ndarray:
        """Mean channel power per pair, zero on the diagonal."""
        with np.errstate(divide="ignore"):
            mean = 1.0 / self.lam
        np.fill_diagonal(mean, 0.0)
        return mean


def linear_topology(n_relays: int, p_a: float = DEFAULT_PATH_LOSS_EXPONENT) -> Topology:
    """Relays equispaced on the source-destination segment."""
    if n_relays < 0:
        raise ValueError("n_relays must be nonnegative")
    xs = np.arange(n_relays + 2) / (n_relays + 1)
    pos = np.column_stack([xs, np.zeros(n_relays + 2)])
    return Topology(positions=pos, p_a=p_a, layout="linear")


def grid_topology(
    side: int, p_a: float = DEFAULT_PATH_LOSS_EXPONENT, scale: float = 1.0
) -> Topology:
    """side x side relay grid centered between source and destination.

    Columns sit at x = c/(side+1) and rows are spaced identically about the
    axis, so the lattice pitch is uniform.  Relays are stored column by
    column toward the destination, top to bottom within a column.  ``scale``
    stretches the grid about its center for experimentation.
    """
    if side < 1:
        raise ValueError("grid side must be >= 1")
    k = side
    coords = []
    for c in range(1, k + 1):
        x = c / (k + 1)
        for r in range(1, k + 1):
            y = ((k + 1) / 2 - r) / (k + 1)
            coords.append((x, y))
    relays = np.asarray(coords)
    center = np.array([0.5, 0.0])
    relays = center + scale * (relays - center)
    pos = np.vstack([[0.0, 0.0], relays, [1.0, 0.0]])
    return Topology(positions=pos, p_a=p_a, layout="grid")


def random_topology(
    n_relays: int,
    rng_seed: int,
    p_a: float = DEFAULT_PATH_LOSS_EXPONENT,
    scale: float = 1.0,
) -> Topology:
    """Relays placed uniformly over the bounding box of the matching grid.

    The box is that of ``grid_topology(ceil(sqrt(n_relays)))``, i.e. an area
    equivalent to the grid arrangement of the same pool size.
    """
    if n_relays < 1:
        raise ValueError("n_relays must be >= 1")
    k = math.isqrt(n_relays)
    if k * k < n_relays:
        k += 1
    lo_x, hi_x = 1 / (k + 1), k / (k + 1)
    half_y = (k - 1) / (2 * (k + 1))
    center = np.array([0.5, 0.0])
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(lo_x, hi_x, size=n_relays)
    ys = rng.uniform(-half_y, half_y, size=n_relays) if half_y > 0 else np.zeros(n_relays)
    relays = center + scale * (np.column_stack([xs, ys]) - center)
    pos = np.vstack([[0.0, 0.0], relays, [1.0, 0.0]])
    return Topology(positions=pos, p_a=p_a, layout="random")


def fading_params(topology: Topology) -> FadingParams:
    """lambda_ij = d_ij^p_a from the pairwise node distances."""
    pos = topology.positions
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    off = ~np.eye(pos.shape[0], dtype=bool)
    if np.any(dist[off] == 0.0):
        i, j = np.argwhere((dist == 0.0) & off)[0]
        raise ValueError(f"nodes {i} and {j} are coincident")
    lam = dist**topology.p_a
    np.fill_diagonal(lam, np.inf)
    return FadingParams(lam=lam)


def draw_channel_powers(params: FadingParams, rng: Generator) -> np.ndarray:
    """One symmetric exponential draw per node pair from the given generator."""
    n = params.lam.shape[0]
    mean = params.mean_power
    iu, ju = np.triu_indices(n, k=1)
    draws = rng.exponential(scale=mean[iu, ju])
    powers = np.zeros((n, n))
    powers[iu, ju] = draws
    powers[ju, iu] = draws
    return powers


# -- counter-based substreams ------------------------------------------------
#
# Each unordered node pair owns a Philox stream keyed by (seed, pair); trial
# i reads position i of that stream, reached by seeking rather than by
# replaying the trials before it.  Draws therefore depend only on
# (seed, pair, trial): worker count, chunking, and appending extra relays to
# the pool all leave existing links' fading untouched.


def _node_stream_key(node: int, n_nodes: int) -> int:
    return _DEST_STREAM_KEY if node == n_nodes - 1 else node


def _philox_stream(base_seed: int, word: int, skip: int = 0) -> Generator:
    """Generator over one keyed stream, positioned after its first ``skip`` doubles.

    Each Philox counter yields four 64-bit words and each double takes one,
    so seeking costs one counter jump plus at most three discarded draws,
    whatever ``skip`` is.
    """
    key = np.array([base_seed & 0xFFFFFFFFFFFFFFFF, word], dtype=np.uint64)
    gen = Generator(Philox(key=key).advance(skip // 4))
    gen.random(skip % 4)
    return gen


def pair_uniforms(
    base_seed: int, key_i: int, key_j: int, n_trials: int, start: int = 0
) -> np.ndarray:
    """Uniforms for trials [start, start+n_trials) of one pair's substream."""
    ki, kj = min(key_i, key_j), max(key_i, key_j)
    return _philox_stream(base_seed, (ki << 32) | kj, start).random(n_trials)


def draw_channel_powers_keyed(
    params: FadingParams, base_seed: int, n_trials: int, start: int = 0
) -> np.ndarray:
    """(n_trials, n, n) symmetric power draws from per-pair substreams."""
    n = params.lam.shape[0]
    mean = params.mean_power
    powers = np.zeros((n_trials, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            u = pair_uniforms(
                base_seed, _node_stream_key(i, n), _node_stream_key(j, n), n_trials, start
            )
            draws = -mean[i, j] * np.log1p(-u)
            powers[:, i, j] = draws
            powers[:, j, i] = draws
    return powers


def trial_permutations(
    base_seed: int, n_relays: int, n_trials: int, start: int = 0
) -> np.ndarray:
    """(n_trials, N) random relay orders (1-based), one per trial substream.

    The permutation is the argsort of a row of keyed uniforms, so it is
    reproducible per trial index under any chunking.
    """
    # reserved stream word; node keys are far too small to collide with it
    gen = _philox_stream(
        base_seed, (_DEST_STREAM_KEY << 32) | _DEST_STREAM_KEY, start * n_relays
    )
    u = gen.random((n_trials, n_relays))
    return np.argsort(u, axis=1, kind="stable") + 1


# -- numbering ---------------------------------------------------------------


def renumber(
    caps_or_topology: LinkCapacityMatrix | Topology,
    scheme: NumberingScheme,
    rng: Generator | None = None,
) -> tuple[int, ...]:
    """Transmission order for the relays (a permutation of 1..N).

    Position k of the result names the relay that transmits (k+1)-th.
    Average schemes need a linear or grid Topology; instantaneous schemes
    need a LinkCapacityMatrix; the random scheme needs ``rng``.
    """
    if scheme in (NumberingScheme.AVERAGE_DESCENDING, NumberingScheme.AVERAGE_LINEAR):
        if not isinstance(caps_or_topology, Topology):
            raise ValueError(f"{scheme.value} numbering requires a Topology")
        topo = caps_or_topology
        if topo.layout not in ("linear", "grid"):
            raise ValueError(
                f"{scheme.value} numbering requires a linear or grid layout, "
                f"got {topo.layout!r}"
            )
        return _average_order(topo, serpentine=scheme is NumberingScheme.AVERAGE_LINEAR)

    if scheme is NumberingScheme.RANDOM:
        if rng is None:
            raise ValueError("random numbering requires a seeded generator")
        n = caps_or_topology.n_relays
        return tuple(int(v) + 1 for v in rng.permutation(n))

    if not isinstance(caps_or_topology, LinkCapacityMatrix):
        raise ValueError(f"{scheme.value} numbering requires a LinkCapacityMatrix")
    caps = caps_or_topology.caps
    n = caps_or_topology.n_relays
    if scheme is NumberingScheme.INSTANTANEOUS_SOURCE_RELAY:
        return _order_by_source_link(caps, n)
    if scheme is NumberingScheme.INSTANTANEOUS_RELAY_RELAY:
        return _order_greedy_chain(caps, n)
    raise ValueError(f"unknown numbering scheme {scheme!r}")


def _average_order(topo: Topology, serpentine: bool) -> tuple[int, ...]:
    relays = topo.relay_positions
    n = relays.shape[0]
    # group into columns of equal x (grid/linear layouts have exact values)
    order_cols: dict[float, list[int]] = {}
    for idx in range(n):
        order_cols.setdefault(round(relays[idx, 0], 9), []).append(idx)
    result: list[int] = []
    for ci, x in enumerate(sorted(order_cols)):
        col = sorted(order_cols[x], key=lambda i: -relays[i, 1])  # top to bottom
        if serpentine and ci % 2 == 1:
            col.reverse()
        result.extend(col)
    return tuple(i + 1 for i in result)


def _order_by_source_link(caps: np.ndarray, n: int) -> tuple[int, ...]:
    return tuple(sorted(range(1, n + 1), key=lambda r: (-caps[0, r], r)))


def _order_greedy_chain(caps: np.ndarray, n: int) -> tuple[int, ...]:
    remaining = set(range(1, n + 1))
    order: list[int] = []
    prev = 0  # start from the source
    while remaining:
        nxt = min(remaining, key=lambda r: (-caps[prev, r], r))
        order.append(nxt)
        remaining.remove(nxt)
        prev = nxt
    return tuple(order)


def permute_relays(matrix: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Reindex a node-by-node matrix so relay ``order[k]`` becomes relay k+1."""
    n = matrix.shape[-1]
    if sorted(order) != list(range(1, n - 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{n - 2}")
    idx = np.array([0, *order, n - 1])
    return matrix[..., idx[:, None], idx[None, :]]
