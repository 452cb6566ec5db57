import pytest

from isummary.rng import XorShift64Star
from isummary.steiner import (
    Disconnected,
    Infeasible,
    SizeLimit,
    SteinerInstance,
    WeightedGraph,
    chins,
    exact_solve,
    normalize_to_min_cost,
    random_instance,
    read_instance,
    tree_cost,
)


def path_graph(weights):
    n = len(weights)
    return WeightedGraph(tuple(weights), tuple((i, i + 1) for i in range(n - 1)))


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph((1.0, -0.5), ((0, 1),))
    with pytest.raises(ValueError):
        WeightedGraph((1.0, 1.0), ((0, 0),))
    with pytest.raises(ValueError):
        WeightedGraph((1.0, 1.0), ((0, 5),))


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_graph_rejects_non_finite_weights(weight):
    # NaN passes a `w < 0` check; an infinite weight makes the normalized costs NaN
    with pytest.raises(ValueError):
        WeightedGraph((1.0, weight), ((0, 1),))


def test_instance_validation():
    g = path_graph([1, 1, 1])
    with pytest.raises(ValueError):
        SteinerInstance(g, frozenset(), 2)
    with pytest.raises(ValueError):
        SteinerInstance(g, frozenset({0, 1}), 1)
    with pytest.raises(ValueError):
        SteinerInstance(g, frozenset({0}), 4)


# -- normalization ---------------------------------------------------------------

def test_normalize_basic():
    g = path_graph([0.0, 5.0, 10.0])
    normalized = normalize_to_min_cost(g, {0})
    assert normalized.weights == (0.0, 0.5, 0.0)


def test_normalize_uniform_weights():
    g = path_graph([3.0, 3.0, 3.0])
    assert normalize_to_min_cost(g, set()).weights == (0.0, 0.0, 0.0)


def test_normalize_derived_values():
    g = path_graph([1.0, 2.0, 4.0])
    normalized = normalize_to_min_cost(g, {2})
    assert normalized.weights[0] == pytest.approx(1.0)
    assert normalized.weights[1] == pytest.approx(0.666667, abs=1e-6)
    assert normalized.weights[2] == 0.0


def test_normalize_forces_terminals_to_zero():
    g = path_graph([9.0, 1.0, 5.0])
    normalized = normalize_to_min_cost(g, {1})
    assert normalized.weights[1] == 0.0


# -- exact solver ----------------------------------------------------------------

def test_exact_three_node_path():
    # {0,2} is disconnected, so the winner is {0,1} despite node 2's weight
    inst = SteinerInstance(path_graph([0.0, 1.0, 5.0]), frozenset({0}), 2)
    tree = exact_solve(inst)
    assert set(tree.nodes) == {0, 1}
    assert tree_cost(inst.graph.weights, tree) == 1.0


def test_exact_whole_tree_forced():
    g = WeightedGraph((1, 2, 3, 4), ((0, 1), (1, 2), (1, 3)))
    inst = SteinerInstance(g, frozenset({0, 1, 2, 3}), 4)
    tree = exact_solve(inst)
    assert set(tree.nodes) == {0, 1, 2, 3}
    assert len(tree.edges) == 3


def test_exact_disconnected_terminals():
    g = WeightedGraph((1, 1, 1, 1), ((0, 1), (2, 3)))
    with pytest.raises(Infeasible):
        exact_solve(SteinerInstance(g, frozenset({0, 2}), 3))


def test_exact_size_limit():
    g = WeightedGraph(tuple([1.0] * 17), tuple((i, i + 1) for i in range(16)))
    with pytest.raises(SizeLimit):
        exact_solve(SteinerInstance(g, frozenset({0}), 2))


def test_exact_tie_breaks_lexicographically():
    # nodes 1 and 2 both weigh 1 and both touch the terminal
    g = WeightedGraph((0.0, 1.0, 1.0), ((0, 1), (0, 2)))
    tree = exact_solve(SteinerInstance(g, frozenset({0}), 2))
    assert set(tree.nodes) == {0, 1}


# -- CHINS -----------------------------------------------------------------------

def test_chins_single_terminal_trivial():
    g = path_graph([1.0])
    inst = SteinerInstance(g, frozenset({0}), 1)
    tree = chins(inst, normalize_to_min_cost(g, {0}).weights)
    assert tree.nodes == (0,) and tree.edges == ()
    assert tree_cost((0.0,), tree) == 0.0


def test_chins_star_route_through_free_center():
    # center 0 costs 0, leaves cost 1; connecting two leaf terminals uses the center
    g = WeightedGraph((0.0, 1.0, 1.0, 1.0), ((0, 1), (0, 2), (0, 3)))
    inst = SteinerInstance(g, frozenset({1, 2}), 2)
    tree = chins(inst, g.weights)
    assert set(tree.nodes) == {0, 1, 2}
    assert set(map(frozenset, tree.edges)) == {frozenset({0, 1}), frozenset({0, 2})}


def test_chins_disconnected_target():
    g = WeightedGraph((1, 1, 1, 1), ((0, 1), (2, 3)))
    inst = SteinerInstance(g, frozenset({0, 2}), 2)
    with pytest.raises(Disconnected):
        chins(inst, (0.0, 0.0, 0.0, 0.0))


def test_chins_tree_shape_on_random_instances():
    rng = XorShift64Star(17)
    for _ in range(400):
        inst = random_instance(rng)
        costs = normalize_to_min_cost(inst.graph, inst.terminals).weights
        tree = chins(inst, costs)
        assert len(tree.edges) == len(tree.nodes) - 1
        assert inst.terminals <= set(tree.nodes)
        # connectivity of the returned edge set
        adjacency = {v: set() for v in tree.nodes}
        for u, v in tree.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        seen = {tree.nodes[0]}
        frontier = [tree.nodes[0]]
        while frontier:
            node = frontier.pop()
            for nb in adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == set(tree.nodes)


def test_chins_optimal_on_complete_graphs():
    # with every pair adjacent the cheapest targets are attached directly, so
    # cheapest insertion recovers an optimal subset: the ratio never exceeds 1
    rng = XorShift64Star(29)
    for _ in range(300):
        inst = random_instance(rng, extra_edge_rate=1.0)
        costs = normalize_to_min_cost(inst.graph, inst.terminals).weights
        exact = exact_solve(inst)
        approx = chins(inst, costs)
        assert tree_cost(costs, approx) <= tree_cost(costs, exact) + 1e-9


def test_exact_weight_monotone_in_k():
    rng = XorShift64Star(41)
    for _ in range(150):
        inst = random_instance(rng)
        if inst.k >= inst.graph.node_count:
            continue
        bigger = SteinerInstance(inst.graph, inst.terminals, inst.k + 1)
        try:
            small_tree = exact_solve(inst)
            big_tree = exact_solve(bigger)
        except Infeasible:
            continue
        weights = inst.graph.weights
        assert tree_cost(weights, big_tree) >= tree_cost(weights, small_tree) - 1e-12


def test_normalization_aligns_argmax_and_argmin():
    # on fixed-size subsets, max weight and min normalized cost pick the same set
    import itertools

    rng = XorShift64Star(53)
    checked = 0
    for _ in range(120):
        inst = random_instance(rng)
        graph = inst.graph
        costs = normalize_to_min_cost(graph, inst.terminals).weights
        others = [v for v in range(graph.node_count) if v not in inst.terminals]
        subsets = []
        for combo in itertools.combinations(others, inst.k - len(inst.terminals)):
            subset = tuple(sorted(tuple(inst.terminals) + combo))
            weight = sum(graph.weights[v] for v in subset)
            cost = sum(costs[v] for v in subset)
            subsets.append((subset, weight, cost))
        if len(subsets) < 2:
            continue
        by_weight = sorted(subsets, key=lambda s: -s[1])
        by_cost = sorted(subsets, key=lambda s: s[2])
        if by_weight[0][1] - by_weight[1][1] < 1e-9:
            continue  # ambiguous optimum
        assert by_weight[0][0] == by_cost[0][0]
        checked += 1
    assert checked > 50


# -- instance files ---------------------------------------------------------------

def test_instance_file_format(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("3 2 1 2\n0 0.5 1\n0 1\n1 2\n0\n", encoding="utf-8")
    inst = read_instance(path)
    assert inst.graph.node_count == 3
    assert inst.terminals == {0}
    assert inst.k == 2
