"""Independent reference implementations used to cross-check the package.

Everything here is written as directly as possible from first principles
(dense numpy, exhaustive enumeration) and deliberately shares no code
with the implementation under test.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# layer construction straight from the defining formulas
#
# Inputs are plain event lists so these do not depend on the package's
# record types:
#   threads: list of (author_id, [(commenter_id, text), ...]) in comment order
#   ratings: list of (rater_id, target_author_id, delta)

def empowerment_weights(threads):
    """w(i->j) = sum over threads of [j commented in i's thread] divided by
    the total indicator mass flowing into j."""
    raw = defaultdict(float)
    for author, comments in threads:
        commenters = []
        for commenter, _text in comments:
            if commenter != author and commenter not in commenters:
                commenters.append(commenter)
        for j in commenters:
            raw[(author, j)] += 1.0
    incoming = defaultdict(float)
    for (_i, j), v in raw.items():
        incoming[j] += v
    return {(i, j): v / incoming[j] for (i, j), v in raw.items()}


def collaboration_weights(threads, resolve):
    """w(i->j) from per-comment weights 0.5 + 0.5/k, receiver-normalized.

    ``resolve(text, author, prior_participants)`` maps a comment to its
    recipient; self-loops are dropped before normalization.
    """
    raw = defaultdict(float)
    for author, comments in threads:
        prior = [author]
        for k, (commenter, text) in enumerate(comments, start=1):
            recipient = resolve(text, author, list(prior))
            if commenter not in prior:
                prior.append(commenter)
            if recipient == commenter:
                continue
            raw[(commenter, recipient)] += 0.5 + 0.5 / k
    incoming = defaultdict(float)
    for (_i, j), v in raw.items():
        incoming[j] += v
    return {(i, j): v / incoming[j] for (i, j), v in raw.items()}


def credibility_weights(ratings):
    """trust(i->j) = 0.5 + 0.5 * mean(delta), sender-normalized; a rater
    whose trust scores are all zero spreads uniform weight instead."""
    deltas = defaultdict(list)
    for rater, target_author, delta in ratings:
        if rater == target_author:
            continue
        deltas[(rater, target_author)].append(delta)
    by_rater = defaultdict(dict)
    for (i, j), ds in deltas.items():
        by_rater[i][j] = 0.5 + 0.5 * (sum(ds) / len(ds))
    weights = {}
    for i, trusts in by_rater.items():
        total = sum(trusts.values())
        for j, t in trusts.items():
            weights[(i, j)] = t / total if total > 0 else 1.0 / len(trusts)
    return weights


# ---------------------------------------------------------------------------
# PageRank via dense eigendecomposition
#
# The renormalized power iteration r <- normalize(alpha*M@r + (1-alpha)/n)
# restricted to the probability simplex is the power method applied to
# A = alpha*M + ((1-alpha)/n) * ones, so its fixed point is the Perron
# vector of A.

def iteration_matrix(n, edges, flow):
    """Dense matrix moving rank mass between users.

    ``edges`` maps (src, dst) index pairs to weights.  flow="against"
    accumulates mass at the source of each edge (M[src, dst] = w);
    flow="along" accumulates at the destination (M[dst, src] = w).
    """
    m = np.zeros((n, n))
    for (i, j), w in edges.items():
        if flow == "against":
            m[i, j] += w
        elif flow == "along":
            m[j, i] += w
        else:
            raise ValueError(flow)
    return m


def dense_pagerank(n, edges, flow, alpha):
    a = alpha * iteration_matrix(n, edges, flow) + (1.0 - alpha) / n
    values, vectors = np.linalg.eig(a)
    lead = np.argmax(values.real)
    v = vectors[:, lead].real
    v = np.abs(v)
    return v / v.sum()


# ---------------------------------------------------------------------------
# chained multiplex ranking as one dense eigenproblem per layer
#
# The renormalized iteration r <- normalize(alpha*s*(M@r) + t*sum(r)) is the
# power method applied to A = alpha*diag(s)@M + t*ones, so its fixed point
# is the Perron vector of A: positive, for the eigenvalue of largest real
# part.  t > 0 everywhere, so A is positive and that vector is unique.

def dense_multiplex_pagerank(n, layer_edges, layer_flows, alphas, beta, gamma,
                             floor=1e-12):
    """Reference for the layer-chained ranking, solved as eigenproblems.

    layer_edges/layer_flows/alphas are sequences ordered by evaluation.
    The first layer is plain PageRank; each later layer multiplies the
    walk term by s = x**beta and teleports t = (1 - alpha) * x**gamma /
    sum(x**gamma), where x is the previous layer's vector (zeros
    floored).  Each vector is the Perron vector of its layer's A,
    L1-normalized.
    """
    results = []
    x = None
    for edges, flow, alpha in zip(layer_edges, layer_flows, alphas):
        m = iteration_matrix(n, edges, flow)
        if x is None:
            walk_scale = np.ones(n)
            teleport = np.full(n, (1.0 - alpha) / n)
        else:
            xf = np.where(x <= 0.0, floor, x)
            walk_scale = xf ** beta
            xg = xf ** gamma
            teleport = (1.0 - alpha) * xg / xg.sum()
        a = alpha * walk_scale[:, None] * m + np.outer(teleport, np.ones(n))
        values, vectors = np.linalg.eig(a)
        v = np.abs(vectors[:, np.argmax(values.real)].real)
        x = v / v.sum()
        results.append(x)
    return results


# ---------------------------------------------------------------------------
# maximal cliques by exhaustive enumeration (graphs up to ~12 vertices)

def brute_force_cliques(adj):
    """All maximal cliques of size >= 2, each sorted, list sorted."""
    vertices = sorted(adj)
    cliques = []
    for size in range(2, len(vertices) + 1):
        for combo in combinations(vertices, size):
            if all(b in adj[a] for a, b in combinations(combo, 2)):
                cliques.append(set(combo))
    maximal = [
        tuple(sorted(c))
        for c in cliques
        if not any(c < other for other in cliques)
    ]
    return sorted(set(maximal))


# ---------------------------------------------------------------------------
# brokerage by direct pair counting on a dense adjacency matrix

def brute_force_brokerage(neighbors):
    n = len(neighbors)
    dense = np.zeros((n, n), dtype=bool)
    for v, ns in enumerate(neighbors):
        for u in ns:
            dense[v, u] = True
            dense[u, v] = True
    raw = np.zeros(n)
    for v in range(n):
        ns = np.flatnonzero(dense[v])
        raw[v] = sum(
            1 for a, b in combinations(ns, 2) if not dense[a, b]
        )
    total = raw.sum()
    if total == 0:
        return np.full(n, 1.0 / n)
    return raw / total


# ---------------------------------------------------------------------------
# cosine over sparse frequency maps, spelled out

def cosine_reference(a, b):
    shared = set(a) & set(b)
    dot = sum(a[k] * b[k] for k in shared)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)
