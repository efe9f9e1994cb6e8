"""The dense chained-ranking oracle solves what it claims to solve: each
vector it returns is a fixed point of its layer's A = alpha*diag(s)@M +
t*ones, the matrix the package's renormalized iteration applies."""

import random

import numpy as np
import pytest

import oracles


def random_edges(rng, n):
    """Weighted edges among n users; some users have none."""
    return {(i, j): rng.uniform(0.1, 1.0)
            for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.3}


@pytest.mark.parametrize("seed", range(20))
def test_each_layer_vector_is_a_fixed_point_of_its_matrix(seed):
    rng = random.Random(7100 + seed)
    n = rng.randrange(2, 12)
    layer_edges = [random_edges(rng, n) for _ in range(3)]
    flows = [rng.choice(["against", "along"]) for _ in range(3)]
    alphas = [rng.uniform(0.6, 0.95) for _ in range(3)]
    beta, gamma = rng.choice([(1.0, 1.0), (0.5, 0.3), (1.0, 0.0), (-0.5, 1.0)])
    vectors = oracles.dense_multiplex_pagerank(n, layer_edges, flows, alphas,
                                               beta, gamma)
    x = np.ones(n)  # the first layer is plain PageRank
    for edges, flow, alpha, r in zip(layer_edges, flows, alphas, vectors):
        walk_scale = x ** beta
        teleport = (1.0 - alpha) * x ** gamma / (x ** gamma).sum()
        a = alpha * np.diag(walk_scale) @ oracles.iteration_matrix(n, edges, flow) \
            + np.outer(teleport, np.ones(n))
        step = a @ r
        assert np.all(r > 0) and abs(r.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(step / step.sum() - r)) <= 1e-12
        x = r
