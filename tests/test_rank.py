"""Ranking: per-layer PageRank, the chained variant, and brokerage."""

import itertools
import random

import numpy as np
import pytest
from scipy import sparse

import oracles
from conftest import make_layer, neighbor_tensor, random_corpus, union_sets
from leadnet import rank
from leadnet.multiplex import (
    LAYER_NAMES,
    ORIENT_RECEIVER,
    ORIENT_SENDER,
    Layer,
    MultiplexTensor,
    build_tensor,
    union_adjacency,
)
from leadnet.rank import (
    ConvergenceError,
    MprParams,
    MprResult,
    RankVector,
    brokerage,
    flow_product,
    multiplex_pagerank,
)

# How rank flows over each layer, kept apart from the package: against
# the stored edges (crediting their sources) or along them.
FLOW = {"empowerment": "against", "collaboration": "against",
        "credibility": "along"}
# the layer a hand-made layer of each orientation is ranked as
SLOT = {ORIENT_RECEIVER: "empowerment", ORIENT_SENDER: "credibility"}


def solo_pagerank(n, layer, alpha=0.85, tol=1e-9, max_iter=1000):
    """Plain PageRank of one layer over ``n`` users through the chained
    ranking with beta = gamma = 0: the layer goes first, in the slot its
    orientation names, and the two empty layers after it converge at
    once.  Returns the scores and the flow the oracle should use."""
    name = SLOT[layer.orientation]
    layers = {other: make_layer({}, ORIENT_RECEIVER) for other in LAYER_NAMES}
    layers[name] = layer
    order = (name,) + tuple(other for other in LAYER_NAMES if other != name)
    params = MprParams(alpha=(alpha,) * 3, beta=0.0, gamma=0.0,
                       layer_order=order, tol=tol, max_iter=max_iter)
    result = multiplex_pagerank(MultiplexTensor(n=n, **layers), params)
    return getattr(result, name).scores, FLOW[name]


def random_layer(rng, n, orientation=ORIENT_RECEIVER, p=0.35):
    """A layer with correctly normalized random weights; nodes with no
    contributing edges stay dangling."""
    edges = {}
    for anchor in range(n):
        others = [v for v in range(n) if v != anchor and rng.random() < p]
        if not others:
            continue
        weights = [rng.uniform(0.1, 1.0) for _ in others]
        total = sum(weights)
        for other, weight in zip(others, weights):
            key = (other, anchor) if orientation == ORIENT_RECEIVER \
                else (anchor, other)
            edges[key] = weight / total
    return make_layer(edges, orientation)


def random_tensor(rng, n):
    return MultiplexTensor(
        n=n,
        empowerment=random_layer(rng, n, ORIENT_RECEIVER),
        collaboration=random_layer(rng, n, ORIENT_RECEIVER),
        credibility=random_layer(rng, n, ORIENT_SENDER),
    )


class TestRankVector:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RankVector(scores=np.array([0.5, 0.2]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            RankVector(scores=np.array([1.5, -0.5]))

    def test_scores_are_read_only(self):
        vector = RankVector(scores=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            vector.scores[0] = 1.0


class TestParamValidation:
    def test_alpha_in_open_interval(self):
        with pytest.raises(ValueError):
            MprParams(alpha=(1.0, 0.85, 0.85))

    def test_exponents_capped_at_one(self):
        with pytest.raises(ValueError):
            MprParams(beta=1.5)

    def test_layer_order_must_permute_layers(self):
        with pytest.raises(ValueError):
            MprParams(layer_order=("empowerment", "empowerment", "credibility"))

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            MprParams(tol=0.0)


class TestPagerank:
    def test_symmetric_cycle_is_uniform(self):
        for orientation in (ORIENT_RECEIVER, ORIENT_SENDER):
            layer = make_layer({(0, 1): 1.0, (1, 0): 1.0}, orientation)
            scores, _flow = solo_pagerank(2, layer)
            assert scores == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_empty_layer_gives_uniform(self):
        scores, _flow = solo_pagerank(4, make_layer({}, ORIENT_RECEIVER))
        assert scores == pytest.approx([0.25] * 4)

    def test_direction_changes_the_beneficiary(self):
        # one stored edge 0 -> 1; the normalized endpoint gives rank away
        edge = {(0, 1): 1.0}
        against, _ = solo_pagerank(2, make_layer(edge, ORIENT_RECEIVER))
        along, _ = solo_pagerank(2, make_layer(edge, ORIENT_SENDER))
        assert against[0] > against[1]                  # rank gathers at 0
        assert along[1] > along[0]                      # rank gathers at 1
        assert against[0] == pytest.approx(along[1])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_dense_eigenvector(self, seed):
        rng = random.Random(8000 + seed)
        n = rng.randrange(2, 26)
        orientation = rng.choice([ORIENT_RECEIVER, ORIENT_SENDER])
        alpha = rng.uniform(0.5, 0.95)
        layer = random_layer(rng, n, orientation)
        got, flow = solo_pagerank(n, layer, alpha=alpha, tol=1e-13,
                                  max_iter=100000)
        want = oracles.dense_pagerank(n, layer.edges, flow, alpha)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_non_convergence_raises_with_state(self):
        layer = make_layer({(0, 1): 1.0}, ORIENT_RECEIVER)
        with pytest.raises(ConvergenceError) as info:
            solo_pagerank(2, layer, max_iter=1)
        head, residual = str(info.value).rsplit(" ", 1)
        assert head == "empowerment ranking did not converge: residual"
        assert float(residual) > 0


class TestChainedRanking:
    @pytest.mark.parametrize("seed", range(12))
    def test_zero_exponents_reduce_to_plain_pagerank(self, seed):
        rng = random.Random(8100 + seed)
        corpus, window, _t, _r = random_corpus(rng)
        tensor = build_tensor(window, corpus)
        params = MprParams(beta=0.0, gamma=0.0, tol=1e-12)
        result = multiplex_pagerank(tensor, params)
        for position, name in enumerate(params.layer_order):
            solo, _flow = solo_pagerank(tensor.n, tensor.layer(name),
                                        alpha=params.alpha[position],
                                        tol=1e-12)
            got = getattr(result, name).scores
            assert np.max(np.abs(got - solo)) < 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_reference(self, seed):
        rng = random.Random(8200 + seed)
        n = rng.randrange(3, 12)
        tensor = random_tensor(rng, n)
        order = ["empowerment", "collaboration", "credibility"]
        rng.shuffle(order)
        alphas = tuple(rng.uniform(0.6, 0.95) for _ in range(3))
        beta, gamma = rng.choice([(1.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
        params = MprParams(alpha=alphas, beta=beta, gamma=gamma,
                           layer_order=tuple(order), tol=1e-12,
                           max_iter=200000)
        result = multiplex_pagerank(tensor, params)
        want = oracles.dense_multiplex_pagerank(
            n,
            [tensor.layer(name).edges for name in order],
            [FLOW[name] for name in order],
            alphas, beta, gamma,
        )
        for name, expected in zip(order, want):
            got = getattr(result, name).scores
            assert np.max(np.abs(got - expected)) < 1e-8, name

    def test_leadership_is_the_last_layer(self):
        rng = random.Random(77)
        tensor = random_tensor(rng, 6)
        for order in itertools.permutations(LAYER_NAMES):
            result = multiplex_pagerank(tensor, MprParams(layer_order=order))
            last = getattr(result, order[-1])
            assert result.leadership is last, order  # the vector, not a copy
            for name in order[:-1]:
                assert not np.array_equal(result.leadership.scores,
                                          getattr(result, name).scores), order

    def test_deterministic_across_runs(self):
        rng = random.Random(78)
        corpus, window, _t, _r = random_corpus(rng)
        tensor = build_tensor(window, corpus)
        first = multiplex_pagerank(tensor, MprParams())
        second = multiplex_pagerank(tensor, MprParams())
        for name in ("empowerment", "collaboration", "credibility",
                     "leadership"):
            assert np.array_equal(getattr(first, name).scores,
                                  getattr(second, name).scores)


def star(n):
    return [set(range(1, n))] + [{0} for _ in range(1, n)]


def complete(n):
    return [set(range(n)) - {v} for v in range(n)]


class TestBrokerage:
    def test_star_center_takes_all(self):
        scores = brokerage(neighbor_tensor(star(4))).scores
        assert scores == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_triangle_has_no_brokers(self):
        tensor = neighbor_tensor([{1, 2}, {0, 2}, {0, 1}])
        assert brokerage(tensor).scores == pytest.approx([1 / 3] * 3)

    def test_path_middle_bridges_one_pair(self):
        tensor = neighbor_tensor([{1}, {0, 2}, {1}])
        assert brokerage(tensor).scores == pytest.approx([0.0, 1.0, 0.0])

    def test_accepts_a_tensor(self):
        # three layers score like their union held in one layer
        rng = random.Random(79)
        corpus, window, _t, _r = random_corpus(rng)
        tensor = build_tensor(window, corpus)
        via_tensor = brokerage(tensor).scores
        via_union = brokerage(neighbor_tensor(union_sets(tensor))).scores
        assert np.array_equal(via_tensor, via_union)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = random.Random(8300 + seed)
        n = rng.randrange(2, 12)
        neighbors = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    neighbors[i].add(j)
                    neighbors[j].add(i)
        got = brokerage(neighbor_tensor(neighbors)).scores
        want = oracles.brute_force_brokerage(neighbors)
        assert np.max(np.abs(got - want)) < 1e-12


def graph_with_leaves(rng, n):
    """Random symmetric neighbor sets where some nodes stay isolated and
    some hang off the rest by a single edge."""
    neighbors = [set() for _ in range(n)]
    roles = [rng.choice(["isolated", "leaf", "core", "core"])
             for _ in range(n)]
    core = [v for v in range(n) if roles[v] == "core"]
    for a in core:
        for b in core:
            if a < b and rng.random() < 0.5:
                neighbors[a].add(b)
                neighbors[b].add(a)
    for v in range(n):
        if roles[v] == "leaf" and core:
            u = rng.choice(core)
            neighbors[v].add(u)
            neighbors[u].add(v)
    return neighbors


class TestBrokerageTriangles:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_with_isolated_and_leaf_nodes(self, seed):
        rng = random.Random(8500 + seed)
        neighbors = graph_with_leaves(rng, rng.randrange(1, 16))
        got = brokerage(neighbor_tensor(neighbors)).scores
        assert np.array_equal(got, oracles.brute_force_brokerage(neighbors))

    @pytest.mark.parametrize("seed", range(10))
    def test_tensor_path_matches_brute_force(self, seed):
        rng = random.Random(8600 + seed)
        corpus, window, _t, _r = random_corpus(rng, n_users=12,
                                               n_threads=10)
        tensor = build_tensor(window, corpus)
        neighbors = union_sets(tensor)
        lo, hi = union_adjacency(tensor)
        assert list(zip(lo.tolist(), hi.tolist())) == sorted(
            (v, u) for v in range(tensor.n) for u in neighbors[v] if v < u)
        assert np.array_equal(brokerage(tensor).scores,
                              oracles.brute_force_brokerage(neighbors))

    def test_empty_graph_is_rejected(self):
        with pytest.raises(ValueError):
            brokerage(neighbor_tensor([]))


def mapping_flow_arrays(layer, flow):
    """The rank matrix M[gainer, giver] built from ``layer.edges`` as
    (gainer, giver, weight) arrays sorted by (gainer, giver)."""
    entries = sorted(((i, j, w) if flow == "against" else (j, i, w))
                     for (i, j), w in layer.edges.items())
    return tuple(np.array([entry[k] for entry in entries],
                          dtype=float if k == 2 else np.int64)
                 for k in range(3))


class TestStoredMatrices:
    @pytest.mark.parametrize("seed", range(10))
    def test_rank_equals_mapping_built_matrices(self, seed, monkeypatch):
        rng = random.Random(8700 + seed)
        corpus, window, _t, _r = random_corpus(rng, n_users=10,
                                               n_threads=12)
        tensor = build_tensor(window, corpus)
        params = MprParams(tol=1e-12)
        got = multiplex_pagerank(tensor, params)
        name_of = {id(layer): name for name, layer in tensor.layers()}
        monkeypatch.setattr(Layer, "flow", property(
            lambda layer: mapping_flow_arrays(layer,
                                              FLOW[name_of[id(layer)]])))
        want = multiplex_pagerank(tensor, params)
        for name in MprResult._fields:
            assert np.array_equal(getattr(got, name).scores,
                                  getattr(want, name).scores), name


# ---------------------------------------------------------------------------
# differential: the numpy matvec and brokerage against scipy.sparse, the
# way the package computed them before it dropped scipy

def scipy_flow(layer, n):
    """M[gainer, giver] over ``n`` users as a CSR matrix: weight[src,
    dst], transposed for a sender-normalized layer."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(layer.src,
                                                        minlength=n))))
    matrix = sparse.csr_matrix((layer.weight, layer.dst, indptr),
                               shape=(n, n))
    return matrix if layer.orientation == ORIENT_RECEIVER \
        else matrix.T.tocsr()


def scipy_brokerage(tensor):
    src = np.concatenate([layer.src for _name, layer in tensor.layers()])
    dst = np.concatenate([layer.dst for _name, layer in tensor.layers()])
    adjacency = sparse.coo_matrix(
        (np.ones(2 * src.size), (np.concatenate((src, dst)),
                                 np.concatenate((dst, src)))),
        shape=(tensor.n, tensor.n)).tocsr()
    adjacency.data[:] = 1.0
    degree = np.diff(adjacency.indptr)
    closed = np.asarray((adjacency @ adjacency).multiply(adjacency)
                        .sum(axis=1)).ravel().astype(np.int64) // 2
    raw = (degree * (degree - 1) // 2 - closed).astype(float)
    total = raw.sum()
    return raw / total if total > 0 else np.full(tensor.n, 1.0 / tensor.n)


def shaped_layers(rng):
    """(n, layer) pairs of both orientations: random layers with dangling
    and isolated nodes, empty ones, stars and complete graphs."""
    for n in (1, 2, 5, 17):
        for orientation in (ORIENT_RECEIVER, ORIENT_SENDER):
            yield n, make_layer({}, orientation)
            for shape in (star, complete):
                edges = {(i, j): rng.uniform(0.0, 1.0)
                         for i, ns in enumerate(shape(n)) for j in ns}
                yield n, make_layer(edges, orientation)
    for _ in range(40):
        n = rng.randrange(1, 30)
        yield n, random_layer(rng, n, rng.choice([ORIENT_RECEIVER,
                                                  ORIENT_SENDER]),
                              p=rng.choice([0.05, 0.2, 0.6]))


class TestFlowProductMatchesScipy:
    def test_shaped_layers(self):
        rng = random.Random(8800)
        for n, layer in shaped_layers(rng):
            for _ in range(3):
                r = np.array([rng.random() for _ in range(n)])
                r /= r.sum()
                assert np.array_equal(flow_product(layer.flow, r),
                                      scipy_flow(layer, n) @ r)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_iterates_match_scipy(self, seed, monkeypatch):
        rng = random.Random(8900 + seed)
        corpus, window, _t, _r = random_corpus(rng, n_users=15,
                                               n_threads=20)
        tensor = build_tensor(window, corpus)
        got = multiplex_pagerank(tensor, MprParams(tol=1e-13))
        csr = {id(layer.flow): scipy_flow(layer, tensor.n)
               for _name, layer in tensor.layers()}
        monkeypatch.setattr(rank, "flow_product",
                            lambda flow, r: csr[id(flow)] @ r)
        want = multiplex_pagerank(tensor, MprParams(tol=1e-13))
        for name in MprResult._fields:
            assert np.array_equal(getattr(got, name).scores,
                                  getattr(want, name).scores), name


class TestBrokerageMatchesScipy:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 25])
    def test_stars_and_complete_graphs(self, n):
        for shape in (star, complete):
            tensor = neighbor_tensor(shape(n))
            assert np.array_equal(brokerage(tensor).scores,
                                  scipy_brokerage(tensor))

    def test_empty_layers(self):
        tensor = neighbor_tensor([set() for _ in range(4)])
        assert np.array_equal(brokerage(tensor).scores,
                              scipy_brokerage(tensor))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_tensors(self, seed):
        # three overlapping layers, some nodes isolated in all of them
        rng = random.Random(9000 + seed)
        n = rng.randrange(1, 40)
        tensor = MultiplexTensor(
            n=n,
            empowerment=random_layer(rng, n, ORIENT_RECEIVER,
                                     p=rng.choice([0.02, 0.1, 0.3])),
            collaboration=random_layer(rng, n, ORIENT_RECEIVER, p=0.05),
            credibility=random_layer(rng, n, ORIENT_SENDER, p=0.05),
        )
        assert np.array_equal(brokerage(tensor).scores,
                              scipy_brokerage(tensor))

    @pytest.mark.parametrize("seed", range(10))
    def test_graphs_with_isolated_and_leaf_nodes(self, seed):
        rng = random.Random(9100 + seed)
        tensor = neighbor_tensor(graph_with_leaves(rng, rng.randrange(1, 60)))
        assert np.array_equal(brokerage(tensor).scores,
                              scipy_brokerage(tensor))
