import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkit as rk
from robustkit.problems import require_k
from splitmix64 import SplitMix64


def brute_force_selection(values, p):
    """Enumerate all C(n,p) subsets; smallest cost, ties to the smaller tuple."""
    best = None
    for combo in itertools.combinations(range(len(values)), p):
        cost = sum(values[j] for j in combo)
        if best is None or (cost, combo) < best:
            best = (cost, combo)
    return best


class TestNominalSolveSelection:
    def test_midpoint_scenario_solution(self, table1):
        u, spec = table1
        x = rk.nominal_solve(spec, rk.midpoint_scenario(u))
        assert x == (0, 2)  # items 1 and 3, 1-indexed

    def test_lp_scenario_solution(self, table1):
        _, spec = table1
        c_prime = [3.75, 6.88, 6.75, 5.50]
        x = rk.nominal_solve(spec, c_prime)
        assert x == (0, 3)  # items 1 and 4

    def test_forced_full_selection(self):
        spec = rk.Selection(n=5, p=5)
        x = rk.nominal_solve(spec, [9.0, 1.0, 4.0, 2.0, 8.0])
        assert x == (0, 1, 2, 3, 4)

    def test_worstcase_scenario_solution(self, table1):
        u, spec = table1
        wc = rk.worstcase_scenario(u)
        # independent oracle: column max, then cheapest pair
        ref_vals = u.costs.max(axis=0)
        ref_cost, ref_combo = brute_force_selection(list(ref_vals), 2)
        x = rk.nominal_solve(spec, wc)
        assert x == ref_combo == (0, 3)
        assert float(np.asarray(wc)[list(x)].sum()) == ref_cost == 12.0

    def test_tie_breaks_by_index(self):
        spec = rk.Selection(n=4, p=2)
        x = rk.nominal_solve(spec, [2.0, 2.0, 2.0, 2.0])
        assert x == (0, 1)

    def test_near_tie_goes_to_the_smaller_index(self):
        # items 1 and 2 tie but for a 1e-13 perturbation, far below
        # EPS_FEAS * max: the smaller index wins, and the lower bound is still
        # the exact minimum, the cost of item 2
        spec = rk.Selection(n=4, p=2)
        values = [5.0, 1.0 + 1e-13, 1.0, 0.5]
        assert rk.nominal_solve(spec, values) == (1, 3)
        u = rk.UncertaintySet(np.array([values]))
        assert rk.certify(u, spec, values, rk.ConvexWeights([1.0]))[1] == 1.5
        # beyond the tolerance the cheaper item wins
        assert rk.nominal_solve(spec, [5.0, 1.0 + 1e-8, 1.0, 0.5]) == (2, 3)

    def test_matches_brute_force_on_random_instances(self):
        rng = SplitMix64(2024)
        for _ in range(40):
            n = 2 + rng.randint_upto(8)
            p = 1 + rng.randint_upto(n - 1)
            values = [float(rng.randint_upto(100)) for _ in range(n)]
            x = rk.nominal_solve(rk.Selection(n=n, p=p), values)
            assert float(np.array(values)[list(x)].sum()) == brute_force_selection(values, p)[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            rk.nominal_solve(rk.Selection(n=3, p=1), [1.0, 2.0])

    def test_rejects_non_finite_cost_vector(self):
        # NaN sorts last, so the p cheapest items would skip it silently
        with pytest.raises(ValueError, match="cost vector must be finite"):
            rk.nominal_solve(rk.Selection(n=4, p=2), [np.nan, 1.0, 2.0, 3.0])


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=9),
    scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    data=st.data(),
)
def test_scaling_leaves_argmin_unchanged(values, scale, data):
    n = len(values)
    p = data.draw(st.integers(min_value=1, max_value=n))
    spec = rk.Selection(n=n, p=p)
    base = rk.nominal_solve(spec, [float(v) for v in values])
    scaled = rk.nominal_solve(spec, [float(v) * scale for v in values])
    assert base == scaled


DIAMOND = rk.ShortestPath(edges=((0, 1), (1, 3), (0, 2), (2, 3), (0, 3)), source=0, sink=3)
# a path whose edges the walk meets in descending index order
DESCENDING = rk.ShortestPath(edges=((2, 3), (1, 2), (0, 1)), source=0, sink=3)


def _table1_over_seven(table1):
    u, spec = table1
    return rk.exact_minmax(rk.UncertaintySet(u.costs / 7), spec)[1]  # not integers: the float64 search


@pytest.mark.parametrize(
    "solve, expected",
    [
        (lambda _: rk.nominal_solve(rk.Selection(n=4, p=2), [5.0, 1.0 + 1e-13, 1.0, 0.5]), (1, 3)),  # tied after below
        (lambda _: rk.nominal_solve(rk.Selection(n=4, p=2), [5.0, 1.0 + 1e-8, 1.0, 0.5]), (2, 3)),
        (lambda _: rk.nominal_solve(DESCENDING, [1.0, 1.0, 1.0]), (0, 1, 2)),
        (lambda table1: rk.exact_minmax(*table1)[1], (0, 3)),  # integers: the int16 search
        (_table1_over_seven, (0, 3)),
        (lambda _: rk.exact_minmax(rk.UncertaintySet(np.ones((2, 3))), DESCENDING)[1], (0, 1, 2)),
        (lambda _: rk.exact_minmax(rk.UncertaintySet(np.array([[1.0, 1.0, 9.0, 9.0, 5.0]])), DIAMOND)[1], (0, 1)),
        (lambda _: list(rk.enumerate_solutions(DESCENDING)), [(0, 1, 2)]),
        (lambda _: list(rk.enumerate_solutions(DIAMOND)), [(0, 1), (2, 3), (4,)]),
        # both paths cost 2 and vertex 3 is reached first, yet the smaller predecessor vertex 0 wins
        (lambda _: rk.nominal_solve(rk.ShortestPath(((5, 3), (5, 0), (3, 1), (0, 1)), 5, 1), [0.0, 1.0, 2.0, 1.0]), (1, 3)),
    ],
)
def test_every_solution_is_a_sorted_tuple_of_python_ints(table1, solve, expected):
    # a numpy integer would print as np.int64(2) under numpy 2, and an
    # unsorted tuple would break the (value, tuple) tie rule
    found = solve(table1)
    assert found == expected
    for x in found if isinstance(found, list) else [found]:
        assert type(x) is tuple and x == tuple(sorted(x))
        assert all(type(j) is int for j in x)


class TestNominalSolveShortestPath:
    def test_picks_cheapest_path(self):
        x = rk.nominal_solve(DIAMOND, [1.0, 1.0, 5.0, 5.0, 3.0])
        assert x == (0, 1)

    def test_direct_edge_wins(self):
        x = rk.nominal_solve(DIAMOND, [2.0, 2.0, 2.0, 2.0, 1.0])
        assert x == (4,)

    def test_matches_path_enumeration(self):
        rng = SplitMix64(7)
        for _ in range(25):
            values = np.array([float(rng.randint_upto(10)) for _ in range(5)])
            x = rk.nominal_solve(DIAMOND, values)
            ref = min(float(np.asarray(values)[list(x)].sum()) for x in rk.enumerate_solutions(DIAMOND))
            assert float(np.asarray(values)[list(x)].sum()) == ref

    def test_solution_is_feasible(self):
        x = rk.nominal_solve(DIAMOND, [1.0, 1.0, 1.0, 1.0, 3.0])
        assert x in set(rk.enumerate_solutions(DIAMOND))


def accepts(spec, k):
    """require_k's answer as a bool: k is accepted unless it raises."""
    try:
        require_k(spec, k)
    except ValueError as exc:
        assert "exceeds the minimum solution cardinality" in str(exc)
        return False
    return True


class TestRequireK:
    def test_selection_values(self):
        for n, p in [(30, 9), (4, 2), (10, 3)]:
            assert accepts(rk.Selection(n=n, p=p), p)
            assert not accepts(rk.Selection(n=n, p=p), p + 1)
        assert accepts(rk.Selection(n=10, p=3), 1)
        assert rk.max_solution_cardinality_bound(rk.Selection(n=10, p=3)) == 3

    def test_single_edge_graph(self):
        spec = rk.ShortestPath(edges=((0, 1),), source=0, sink=1)
        assert accepts(spec, 1) and not accepts(spec, 2)
        assert rk.max_solution_cardinality_bound(spec) == 1

    def test_three_node_dag(self):
        # s->a->t plus the direct edge s->t: two paths, longest has 2 hops
        spec = rk.ShortestPath(edges=((0, 1), (1, 2), (0, 2)), source=0, sink=2)
        paths = list(rk.enumerate_solutions(spec))
        assert max(len(x) for x in paths) == 2  # oracle: enumerate both paths
        assert rk.max_solution_cardinality_bound(spec) == 2
        assert accepts(spec, 1) and not accepts(spec, 2)

    def test_path(self):
        assert accepts(DIAMOND, 1)
        assert not accepts(DIAMOND, 2)  # the direct edge is a 1-hop solution

    def test_cyclic_subgraph_falls_back_to_vertex_count_minus_one(self):
        # 0 -> 1 <-> 2 -> 3: the cycle lies on s-t walks, and a simple path visits each of the 4 vertices once
        spec = rk.ShortestPath(edges=((0, 1), (1, 2), (2, 1), (2, 3)), source=0, sink=3)
        assert rk.max_solution_cardinality_bound(spec) == 3

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 1), (0, 2), (1, 3), (2, 3), (3, 2)),  # an edge out of the sink closes 2 <-> 3
            ((0, 1), (1, 2), (2, 0), (1, 3)),  # an edge into the source closes 0 -> 1 -> 2 -> 0
            ((0, 1), (1, 0), (1, 3)),  # a 2-cycle through the source
        ],
    )
    def test_edges_into_the_source_or_out_of_the_sink_close_no_cycle(self, edges):
        # no simple 0-3 path uses such an edge, so the bound is the longest path, 2
        spec = rk.ShortestPath(edges=edges, source=0, sink=3)
        assert max(len(x) for x in rk.enumerate_solutions(spec)) == 2
        assert rk.max_solution_cardinality_bound(spec) == 2

    def test_cycles_off_the_st_subgraph_leave_the_dag_answer(self):
        # the 3-node DAG of test_three_node_dag, longest path 2, plus a 2-cycle feeding the source (3 <-> 4 -> 0)
        # and one the sink cannot be reached from (1 -> 5 <-> 6)
        dag = ((0, 1), (1, 2), (0, 2))
        for extra in [((3, 4), (4, 3), (3, 0)), ((1, 5), (5, 6), (6, 5))]:
            spec = rk.ShortestPath(edges=dag + extra, source=0, sink=2)
            assert rk.max_solution_cardinality_bound(spec) == 2

    @pytest.mark.parametrize("steps", [100, 20_000])
    def test_longest_path_on_a_ladder(self, steps):
        # ladder DAG: edges i -> i+1 and i -> i+2; the longest path takes every unit step
        edges = tuple((i, i + d) for i in range(steps) for d in (1, 2) if i + d <= steps)
        spec = rk.ShortestPath(edges=edges, source=0, sink=steps)
        assert rk.max_solution_cardinality_bound(spec) == steps
        assert accepts(spec, steps // 2) and not accepts(spec, steps // 2 + 1)  # the fewest hops take the 2-steps

    def test_selection_accepts_k_up_to_its_max(self):
        rng = SplitMix64(99)
        for _ in range(20):
            n = 2 + rng.randint_upto(10)
            p = 1 + rng.randint_upto(n - 1)
            spec = rk.Selection(n=n, p=p)
            assert accepts(spec, rk.max_solution_cardinality_bound(spec))

    def test_rejects_nonpositive_k(self):
        for spec in (rk.Selection(n=4, p=2), DIAMOND):
            with pytest.raises(ValueError, match="k must be >= 1, got 0"):
                require_k(spec, 0)


class TestSpecValidation:
    def test_selection_bounds(self):
        with pytest.raises(ValueError):
            rk.Selection(n=3, p=0)
        with pytest.raises(ValueError):
            rk.Selection(n=3, p=4)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            rk.Selection(n=0, p=1)

    @pytest.mark.parametrize(
        "n, p, match",
        [(4, 2.0, "p must be an integer, got 2.0"), (4.5, 2, "n must be an integer, got 4.5"), ("4", 2, "n must be an integer, got '4'")],
    )
    def test_selection_sizes_must_be_integers(self, n, p, match):
        # each once constructed, and nominal_solve then raised numpy's TypeError
        with pytest.raises(ValueError, match=match):
            rk.Selection(n=n, p=p)

    def test_selection_sizes_become_python_ints(self):
        spec = rk.Selection(n=np.int64(4), p=np.int32(2))
        assert spec == rk.Selection(n=4, p=2) and type(spec.n) is int and type(spec.p) is int

    def test_path_needs_connectivity(self):
        with pytest.raises(ValueError, match="no path"):
            rk.ShortestPath(edges=((0, 1),), source=1, sink=0)
        with pytest.raises(ValueError, match="differ"):
            rk.ShortestPath(edges=((0, 1),), source=0, sink=0)
        with pytest.raises(ValueError, match="need at least one edge"):
            rk.ShortestPath(edges=(), source=0, sink=1)


def random_digraph(rng, cyclic):
    """Small digraph on vertices 0..v, with the source at a random position.

    Edges run forward in a random vertex order, each with probability 1/2,
    or 1/4 for the direct source-sink edge, so that many shortest paths
    take more than one hop. The graph is acyclic unless cyclic adds a
    2-cycle on a random pair, a doubled self-loop when the pair is one
    vertex. Vertex v reaches the graph by one edge, often
    into the source, and nothing reaches v.
    """
    v = 3 + rng.randint_upto(5)
    rank = list(range(v))
    for i in range(v - 1, 0, -1):
        j = rng.randint_upto(i)
        rank[i], rank[j] = rank[j], rank[i]
    source, sink = rng.randint_upto(v - 1), rng.randint_upto(v - 1)
    edges = [
        (a, b)
        for a in range(v)
        for b in range(v)
        if rank[a] < rank[b] and rng.randint_upto(3 if (a, b) == (source, sink) else 1) == 0
    ]
    edges.append((v, rng.randint_upto(v - 1)))
    if cyclic:
        a, b = rng.randint_upto(v - 1), rng.randint_upto(v - 1)
        edges += [(a, b), (b, a)]
    return tuple(edges), source, sink


def st_subgraph(edges, source, sink):
    """(the vertices on some s-t walk, whether a cycle runs through one of them), by transitive closure.

    The walks use no edge into the source or out of the sink, as no simple s-t path does.
    """
    v = 1 + max(max(e) for e in edges)
    reach = np.zeros((v, v), dtype=bool)
    reach[tuple(zip(*[(a, b) for a, b in edges if a != sink and b != source]))] = True
    for w in range(v):  # Warshall: paths through intermediates 0..w
        reach |= np.outer(reach[:, w], reach[w])
    on_walks = [w for w in range(v) if (w == source or reach[source, w]) and (w == sink or reach[w, sink])]
    return on_walks, any(reach[w, w] for w in on_walks)


def test_cardinalities_match_path_enumeration_on_random_digraphs():
    rng = SplitMix64(31)
    checked = {False: 0, True: 0}
    st_checked = {False: 0, True: 0}
    while min(checked.values()) < 150:  # draws 28 graphs whose s-t subgraph is cyclic
        cyclic = rng.randint_upto(1) == 1
        edges, source, sink = random_digraph(rng, cyclic)
        try:
            spec = rk.ShortestPath(edges=edges, source=source, sink=sink)
        except ValueError:
            continue  # source == sink, or the sink is unreachable
        lengths = [len(x) for x in rk.enumerate_solutions(spec)]
        for k in range(1, max(lengths) + 2):
            assert accepts(spec, k) == (k <= min(lengths))
        on_walks, st_cyclic = st_subgraph(edges, source, sink)
        bound = rk.max_solution_cardinality_bound(spec)
        if st_cyclic:
            assert max(lengths) <= bound <= len(on_walks) - 1
        else:
            assert bound == max(lengths)
        checked[cyclic] += 1
        st_checked[st_cyclic] += 1
    assert min(st_checked.values()) >= 20
    assert st_checked[False] > checked[False]  # some cyclic graphs keep their cycle off the s-t subgraph
