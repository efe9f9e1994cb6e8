"""Leadership ranking: PageRank per layer, chained across layers, and an
ego-network brokerage score.

Rank mass moves between users along layer edges, in the direction the
layer's orientation sets (``Layer.flow``): the endpoint a layer is
normalized over gives its rank away.

* empowerment and collaboration are receiver-normalized and credit the
  *source* of an edge (authors who got comments, commenters who
  answered), so rank flows against the stored edges;
* credibility is sender-normalized and credits the *target* (authors
  who received trust), so rank flows along the stored edges.

Either way the update multiplies by a matrix whose columns sum to 1
wherever the contributing user is connected, every iterate is
L1-renormalized, and damping teleports the remaining mass.  The chained
variant additionally scales each user's walk term by x_i**beta and their
teleport share by x_i**gamma, where x is the previous layer's converged
vector; with beta = gamma = 0 every layer reduces to plain PageRank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .multiplex import LAYER_NAMES, MultiplexTensor, union_adjacency

# Replaces exact zeros of the previous layer's vector before
# exponentiation, so a user can never be permanently frozen out.
EPSILON_FLOOR = 1e-12


class ConvergenceError(Exception):
    """A layer's iteration ran out of steps or lost its finite mass; the
    message names the layer and the residual or the step."""


@dataclass(frozen=True)
class RankVector:
    """A probability vector over corpus users (sums to 1, entries >= 0)."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 1 or scores.size < 1:
            raise ValueError("scores must be a non-empty vector")
        if not np.all(np.isfinite(scores)) or np.any(scores < 0):
            raise ValueError("scores must be finite and non-negative")
        if abs(scores.sum() - 1.0) > 1e-9:
            raise ValueError(f"scores must sum to 1, got {scores.sum()!r}")
        scores.setflags(write=False)


@dataclass(frozen=True)
class MprParams:
    """Knobs of the chained ranking.

    alpha: per-layer damping, each in (0, 1), ordered like layer_order.
    beta, gamma: chaining exponents, at most 1.
    """

    alpha: tuple[float, float, float] = (0.85, 0.85, 0.85)
    beta: float = 1.0
    gamma: float = 1.0
    layer_order: tuple[str, str, str] = LAYER_NAMES
    tol: float = 1e-9
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if len(self.alpha) != 3 or not all(0.0 < a < 1.0 for a in self.alpha):
            raise ValueError("alpha must be three dampings, each in (0, 1)")
        if self.beta > 1.0 or self.gamma > 1.0:
            raise ValueError("beta and gamma must be <= 1")
        if sorted(self.layer_order) != sorted(LAYER_NAMES):
            raise ValueError(f"layer_order must permute {LAYER_NAMES}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


class MprResult(NamedTuple):
    empowerment: RankVector
    collaboration: RankVector
    credibility: RankVector
    leadership: RankVector


def flow_product(flow: tuple[np.ndarray, np.ndarray, np.ndarray],
                 r: np.ndarray) -> np.ndarray:
    """M @ r for a layer's ``flow`` arrays.  Each gainer's terms are
    added in giver order, as a CSR matrix-vector product adds them."""
    gainer, giver, weight = flow
    return np.bincount(gainer, weights=weight * r[giver], minlength=r.size)


def _power_iterate(
    flow: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
    alpha: float,
    tol: float,
    max_iter: int,
    label: str,
    walk_scale: np.ndarray,
    teleport: np.ndarray,
) -> np.ndarray:
    r = np.full(n, 1.0 / n)
    residual = np.inf
    for step in range(1, max_iter + 1):
        moved = walk_scale * flow_product(flow, r)
        nxt = alpha * moved + teleport
        total = nxt.sum()
        if not 0.0 < total < np.inf:  # False for NaN too
            raise ConvergenceError(
                f"{label} ranking weights overflowed at step {step}")
        nxt /= total
        residual = float(np.abs(nxt - r).sum())
        r = nxt
        if residual < tol:
            return r
    raise ConvergenceError(
        f"{label} ranking did not converge: residual {residual:.3e}")


@np.errstate(over="ignore", invalid="ignore")
def multiplex_pagerank(
    tensor: MultiplexTensor, params: MprParams = MprParams()
) -> MprResult:
    """Rank layers in params.layer_order, feeding each converged vector
    into the next layer's walk and teleport terms.  The final layer's
    vector doubles as the leadership rank.  The first layer takes x = 1,
    which makes its walk scale 1 and its teleport (1 - alpha) / n: plain
    PageRank.  A negative exponent whose weights overflow makes a step
    inf or NaN, and that layer raises ConvergenceError naming that step."""
    ranked: dict[str, RankVector] = {}
    prev = np.ones(tensor.n)
    for position, name in enumerate(params.layer_order):
        alpha = params.alpha[position]
        x = np.where(prev <= 0.0, EPSILON_FLOOR, prev)
        walk_scale = x ** params.beta
        x_gamma = x ** params.gamma
        teleport = (1.0 - alpha) * x_gamma / x_gamma.sum()
        scores = _power_iterate(
            tensor.layer(name).flow, tensor.n, alpha, params.tol,
            params.max_iter, name, walk_scale=walk_scale, teleport=teleport,
        )
        ranked[name] = RankVector(scores)
        prev = scores
    return MprResult(**ranked, leadership=ranked[params.layer_order[-1]])


def brokerage(tensor: MultiplexTensor) -> RankVector:
    """How often a user bridges otherwise unconnected neighbors.

    On the undirected union of the layer edge supports a user scores one
    point per unordered neighbor pair with no direct edge: C(d, 2) minus
    the triangles through the user.  Triangles are counted from oriented
    wedges, as in Azad, Buluç and Gilbert (IPDPSW 2015): each edge points
    from its lower (degree, id) end to its higher one, every pair of a
    node's out-neighbors is looked up among the sorted edges, and each
    triangle, found once at its lowest node, is credited to all three.
    Scores are normalized to a probability vector (uniform when nobody
    brokers)."""
    n = tensor.n
    lo, hi = union_adjacency(tensor)
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    upward = degree[lo] <= degree[hi]  # ties go up, as lo < hi
    tail, head = np.where(upward, lo, hi), np.where(upward, hi, lo)
    order = np.argsort(tail, kind="stable")
    tail, head = tail[order], head[order]
    # wedge (first, second): two out-edges of one node, first < second;
    # ``later`` counts the out-edges of each edge's tail that follow it
    later = np.searchsorted(tail, tail, side="right") - np.arange(tail.size) - 1
    first = np.repeat(np.arange(tail.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(
        np.cumsum(later) - later, later)
    a, b = head[first], head[second]
    keys = lo * n + hi  # sorted, as union_adjacency returns the pairs
    wedge = np.minimum(a, b) * n + np.maximum(a, b)
    closed = keys[np.minimum(np.searchsorted(keys, wedge), keys.size - 1)] \
        == wedge
    triangles = sum(np.bincount(ends[closed], minlength=n)
                    for ends in (tail[first], a, b))
    raw = (degree * (degree - 1) // 2 - triangles).astype(float)
    total = raw.sum()
    scores = raw / total if total > 0 else np.full(n, 1.0 / n)
    return RankVector(scores=scores)
