"""Network geometries, fading statistics, and relay numbering schemes.

Distances are normalized so the source-destination separation is 1.  Channel
powers are exponentially distributed with rate lambda_ij = d_ij^p_a, i.e.
mean power d_ij^-p_a.  Node order in every matrix follows the package
convention: source 0, relays 1..N, destination N+1.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .rate_model import LinkCapacityMatrix, snr_from_db

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


# Schemes that give every trial one order, read from a linear or grid layout.
AVERAGE_SCHEMES = (NumberingScheme.AVERAGE_DESCENDING, NumberingScheme.AVERAGE_LINEAR)
AVERAGE_LAYOUTS = ("linear", "grid")


@dataclass(frozen=True)
class Topology:
    """Node coordinates (source first, destination last) and path-loss exponent."""

    positions: np.ndarray
    p_a: float = DEFAULT_PATH_LOSS_EXPONENT
    layout: str = "custom"

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)  # copied: the caller's array stays writeable
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ValueError(f"positions must be (n >= 2, 2), got {pos.shape}")
        if not np.isfinite(pos).all():
            bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
            where = ", ".join(f"node {i} at {tuple(pos[i].tolist())}" for i in bad)
            raise ValueError(f"positions must be finite: {where}")
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
        lam = np.array(self.lam, dtype=float)  # copied: the caller's array stays writeable
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ValueError(f"lambda matrix must be square, got {lam.shape}")
        off = lam[~np.eye(lam.shape[0], dtype=bool)]
        # as from fading_params; a NaN fails here, before the symmetry test
        with np.errstate(divide="ignore", over="ignore"):
            if not np.all((off > 0) & np.isfinite(off) & np.isfinite(1.0 / off)):
                raise ValueError(
                    "off-diagonal lambda entries must be positive and finite, "
                    "with a finite mean power 1/lambda"
                )
        if not np.allclose(lam, lam.T):
            raise ValueError("lambda matrix must be symmetric")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

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


def grid_topology(side: int, p_a: float = DEFAULT_PATH_LOSS_EXPONENT) -> Topology:
    """side x side relay grid centered between source and destination.

    Columns sit at x = c/(side+1) and rows are spaced identically about the
    axis, so the lattice pitch is uniform.  Relays are stored column by
    column toward the destination, top to bottom within a column.
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
    pos = np.vstack([[0.0, 0.0], coords, [1.0, 0.0]])
    return Topology(positions=pos, p_a=p_a, layout="grid")


def random_topology(
    n_relays: int, rng_seed: int, p_a: float = DEFAULT_PATH_LOSS_EXPONENT
) -> Topology:
    """Relays placed uniformly over the bounding box of the matching grid.

    The box is that of ``grid_topology(ceil(sqrt(n_relays)))``, i.e. an area
    equivalent to the grid arrangement of the same pool size.  The seed
    follows the one rule of ``check_seed``: 0..2^64 - 1.
    """
    if n_relays < 1:
        raise ValueError("n_relays must be >= 1")
    k = math.isqrt(n_relays)
    if k * k < n_relays:
        k += 1
    lo_x, hi_x = 1 / (k + 1), k / (k + 1)
    half_y = (k - 1) / (2 * (k + 1))
    check_seed(rng_seed)
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(lo_x, hi_x, size=n_relays)
    ys = rng.uniform(-half_y, half_y, size=n_relays) if half_y > 0 else np.zeros(n_relays)
    pos = np.vstack([[0.0, 0.0], np.column_stack([xs, ys]), [1.0, 0.0]])
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
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        lam = dist**topology.p_a
        np.fill_diagonal(lam, 1.0)
        # lambda and the mean power 1/lambda must be finite; lambda >= 0, so
        # a finite 1/lambda also makes it positive
        ok = np.isfinite(lam) & np.isfinite(1.0 / lam)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ValueError(
            f"nodes {i} and {j}: lambda = d^p_a = {dist[i, j]:g}^{topology.p_a:g} is "
            f"{lam[i, j]:g}, but lambda and the mean power 1/lambda must be positive "
            f"and finite; lower p_a or move the nodes"
        )
    np.fill_diagonal(lam, np.inf)
    return FadingParams(lam=lam)


# -- counter-based substreams ------------------------------------------------
#
# Each unordered node pair owns a Philox stream keyed by (seed, pair); trial
# i reads position i of that stream, reached by seeking rather than by
# replaying the trials before it.  Draws therefore depend only on
# (seed, pair, trial): worker count, chunking, and appending extra relays to
# the pool all leave existing links' fading untouched.


def _node_stream_key(node: int, n_nodes: int) -> int:
    return _DEST_STREAM_KEY if node == n_nodes - 1 else node


def check_seed(base_seed: int) -> None:
    """ValueError unless ``base_seed`` fits the 64-bit word of the stream
    keys, 0..2^64 - 1: reduced into it, two seeds would share every draw.
    A seed that is not an integer raises TypeError."""
    if not 0 <= operator.index(base_seed) < 1 << 64:
        raise ValueError(f"seed {base_seed} is outside 0..2**64 - 1")


def _seek(gen: Generator, base_seed: int, word: int, skip: int) -> Generator:
    """Key ``gen``'s Philox to the stream (base_seed, word) and position it
    after the stream's first ``skip`` doubles; returns ``gen``.

    Each Philox counter yields four 64-bit words and each double takes one,
    so the counter is set to skip // 4 with an empty buffer (the state that
    ``Philox(key=...).advance(skip // 4)`` holds), and skip % 4 draws are
    discarded: one state write plus at most three draws, whatever ``skip``
    is.  Re-keying one bit generator this way spares the OS entropy read
    that every new ``Philox`` makes for a seed sequence a key then ignores.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.frombuffer((skip // 4).to_bytes(32, "little"), dtype=np.uint64),
            "key": (base_seed, word),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen.random(skip % 4)
    return gen


def _philox_stream(base_seed: int, word: int, skip: int = 0) -> Generator:
    """Generator over one keyed stream, positioned after its first ``skip`` doubles."""
    check_seed(base_seed)
    return _seek(Generator(Philox()), base_seed, word, skip)


def _pair_word(key_i: int, key_j: int) -> int:
    """Stream word of the unordered pair of node keys."""
    return (min(key_i, key_j) << 32) | max(key_i, key_j)


def pair_uniforms(
    base_seed: int, key_i: int, key_j: int, n_trials: int, start: int = 0
) -> np.ndarray:
    """Uniforms for trials [start, start+n_trials) of one pair's substream."""
    return _philox_stream(base_seed, _pair_word(key_i, key_j), start).random(n_trials)


def draw_channel_powers_keyed(
    params: FadingParams, base_seed: int, n_trials: int, start: int = 0
) -> np.ndarray:
    """(n_trials, n, n) symmetric power draws from per-pair substreams.

    Each pair's draws are -mean * log1p(-u) over its ``pair_uniforms``;
    one bit generator is re-keyed and seeked to every pair's stream in turn.
    The result is the transposed view of a link-major (n, n, n_trials)
    buffer: ``powers.transpose(1, 2, 0)`` is C-contiguous, so each link's
    draws over the trials are adjacent in memory.
    """
    n = params.lam.shape[0]
    mean = params.mean_power
    powers = np.zeros((n, n, n_trials))
    check_seed(base_seed)
    gen = Generator(Philox())
    for i in range(n):
        for j in range(i + 1, n):
            word = _pair_word(_node_stream_key(i, n), _node_stream_key(j, n))
            draws = powers[i, j]
            _seek(gen, base_seed, word, start).random(out=draws)
            np.negative(draws, out=draws)
            np.log1p(draws, out=draws)
            draws *= -mean[i, j]
            powers[j, i] = draws
    return powers.transpose(2, 0, 1)


def check_snr(params: FadingParams, snr_db: float) -> None:
    """ValueError when an SNR of ``snr_db`` dB times a channel power drawn
    from ``params`` can overflow to an infinite capacity.

    A draw is -mean * log1p(-u) with u < 1 - 2^-53, at most 53 ln 2 (about
    36.74) times its mean, so within this bound no SNR times power does.
    Checked before any draw, for a sweep's largest SNR and for a generated
    instance's one.
    """
    if snr_from_db(snr_db) * float(params.mean_power.max()) * 37.0 > sys.float_info.max:
        raise ValueError(
            f"snr_db {snr_db:g} is too high for this topology: "
            f"an SNR times a channel power can overflow to inf"
        )


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


def trial_orders(
    powers: np.ndarray,
    topology: Topology,
    scheme: NumberingScheme,
    base_seed: int,
    start: int = 0,
) -> np.ndarray:
    """Transmission orders, 1-based relay labels, of trials [start, start+T)
    with (T, n, n) channel ``powers``: (T, N), or (1, N) when every trial
    shares one order (average schemes, no relays).  Instantaneous orders
    come from the powers, so they hold at every SNR; random ones are the
    trials' keyed ``trial_permutations``.
    """
    n_trials, n, _ = powers.shape
    n_relays = n - 2
    if n_relays == 0:
        return np.empty((1, 0), dtype=np.intp)
    if scheme in AVERAGE_SCHEMES:
        return np.array([renumber(topology, scheme)], dtype=np.intp)
    if scheme is NumberingScheme.RANDOM:
        return trial_permutations(base_seed, n_relays, n_trials, start)
    return instantaneous_orders(powers, scheme)


def renumber(
    caps_or_topology: LinkCapacityMatrix | Topology, scheme: NumberingScheme
) -> tuple[int, ...]:
    """Transmission order for the relays (a permutation of 1..N).

    Position k of the result names the relay that transmits (k+1)-th.
    Average schemes need a linear or grid Topology; instantaneous schemes
    need a LinkCapacityMatrix.  Random orders exist only per trial, from
    ``trial_permutations``.
    """
    if scheme in AVERAGE_SCHEMES:
        if not isinstance(caps_or_topology, Topology):
            raise ValueError(f"{scheme.value} numbering requires a Topology")
        topo = caps_or_topology
        if topo.layout not in AVERAGE_LAYOUTS:
            raise ValueError(
                f"{scheme.value} numbering requires a linear or grid layout, "
                f"got {topo.layout!r}"
            )
        return _average_order(topo, serpentine=scheme is NumberingScheme.AVERAGE_LINEAR)
    if scheme is NumberingScheme.RANDOM:
        raise ValueError("random orders are drawn per trial: use trial_permutations")
    if not isinstance(caps_or_topology, LinkCapacityMatrix):
        raise ValueError(f"{scheme.value} numbering requires a LinkCapacityMatrix")
    return tuple(int(r) for r in instantaneous_orders(caps_or_topology.caps[None], scheme)[0])


def instantaneous_orders(links: np.ndarray, scheme: NumberingScheme) -> np.ndarray:
    """(T, N) transmission orders, 1-based relay labels, of a (T, n, n) stack.

    Source-relay sorts the relays by their source link, strongest first;
    relay-relay chains greedily from the source, each step to the strongest
    link into a relay not yet placed.  Ties go to the smaller label.  Links
    may be powers or capacities: capacities are monotone in power at any SNR.
    """
    n_trials, n, _ = links.shape
    n_relays = n - 2
    if scheme is NumberingScheme.INSTANTANEOUS_SOURCE_RELAY:
        return np.argsort(-links[:, 0, 1 : n_relays + 1], axis=1, kind="stable") + 1
    if scheme is NumberingScheme.INSTANTANEOUS_RELAY_RELAY:
        order = np.empty((n_trials, n_relays), dtype=np.intp)
        if not n_relays:
            return order
        taken = np.zeros((n_trials, n_relays), dtype=bool)
        rows = np.arange(n_trials)
        # the first step reads the source's links, where nothing is taken
        # yet: their first maximum, by a running strict comparison over the
        # N rows links[:, 0, r], each contiguous in a link-major stack (an
        # argmax along the strided relay axis loops once per trial).  Links
        # are finite, so this is argmax's pick.
        top = links[:, 0, 1]
        nxt = np.zeros(n_trials, dtype=np.intp)
        for r in range(2, n_relays + 1):
            row = links[:, 0, r]
            more = row > top
            np.copyto(nxt, r - 1, where=more)
            top = np.where(more, row, top)
        order[:, 0] = nxt
        for step in range(1, n_relays - 1):
            taken[rows, nxt] = True
            scores = links[rows, nxt + 1, 1 : n_relays + 1]  # a gather, so a copy
            scores[taken] = -np.inf
            nxt = np.argmax(scores, axis=1)
            order[:, step] = nxt
        # the last step places the one relay not yet taken
        taken[rows, nxt] = True
        order[:, -1] = np.argmin(taken, axis=1)
        order += 1
        return order
    raise ValueError(
        f"instantaneous_orders needs an instantaneous numbering scheme, got {scheme.value}"
    )


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


def permute_relays(matrix: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Reindex a node-by-node matrix so relay ``order[k]`` becomes relay k+1."""
    n = matrix.shape[-1]
    if sorted(order) != list(range(1, n - 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{n - 2}")
    idx = np.array([0, *order, n - 1])
    return matrix[..., idx[:, None], idx[None, :]]
