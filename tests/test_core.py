import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkit as rk
from robustkit.core import cost_vector
from robustkit.problems import InstanceFormatError


class TestPublicSurface:
    def test_all_is_exactly_the_public_imports(self):
        tree = ast.parse(inspect.getsource(rk))
        imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
        assert sorted(rk.__all__) == sorted(name for name in imported if not name.startswith("_"))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from robustkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(rk.__all__)

    def test_core_imports_no_problem_family(self):
        # the families, their solutions and the file format live in problems
        tree = ast.parse(Path(rk.core.__file__).read_text(encoding="utf-8"))
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [a.name for a in node.names]
        assert not [name for name in names if "problems" in name.split(".")]


class TestUncertaintySet:
    def test_table1_shape(self, table1):
        u, _ = table1
        assert u.n_scenarios == 3
        assert u.n_items == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rk.UncertaintySet(np.array([[1.0, -0.5]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            rk.UncertaintySet(np.array([[1.0, np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rk.UncertaintySet(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="2-d matrix, got ndim=1"):
            rk.UncertaintySet(np.ones(3))

    def test_costs_are_immutable(self, table1):
        u, _ = table1
        with pytest.raises(ValueError):
            u.costs[0, 0] = 99.0


class TestScenario:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cost_vector([1.0, -1.0], 2)

    @pytest.mark.parametrize(
        "consumer",
        [
            lambda u, spec, c: rk.fixed_scenario_guarantee(u, spec, 1, c),
            lambda u, spec, c: rk.separation_oracle(u, spec, 1, c, 0.5),
            lambda u, spec, c: rk.certify(u, spec, c, rk.ConvexWeights.uniform(u.n_scenarios)),
            lambda u, spec, c: rk.nominal_solve(spec, c),
        ],
        ids=["fixed_scenario_guarantee", "separation_oracle", "certify", "nominal_solve"],
    )
    def test_every_consumer_refuses_a_negative_entry(self, table1, consumer):
        # a scenario is a plain vector, so each consumer checks it through cost_vector
        u, spec = table1
        with pytest.raises(ValueError):
            consumer(u, spec, -u.costs.mean(axis=0))  # the midpoint, negated


class TestConvexWeights:
    def test_uniform(self):
        lam = rk.ConvexWeights.uniform(4)
        assert np.allclose(lam.lam, 0.25)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rk.ConvexWeights([0.5, 0.4])

    def test_rejects_negative_beyond_tolerance(self):
        with pytest.raises(ValueError):
            rk.ConvexWeights([1.1, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            rk.ConvexWeights(np.array([np.nan, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty 1-d vector"):
            rk.ConvexWeights([])

    def test_tiny_negative_tolerated(self):
        lam = rk.ConvexWeights([1.0 + 5e-10, -5e-10])
        assert lam.lam.shape == (2,)

    def test_combine_clips_roundoff(self, table1):
        u, _ = table1
        lam = rk.ConvexWeights([1.0 + 5e-10, 0.0, -5e-10])
        assert np.all(lam.combine(u) >= 0.0)


def test_ratio_or_inf():
    assert rk.ratio_or_inf(12.0, 8.0) == 1.5
    assert rk.ratio_or_inf(1.0, 0.0) == math.inf
    assert rk.ratio_or_inf(0.0, 0.0) == 1.0


class TestParseInstance:
    def test_table1(self, table1_text):
        u, spec = rk.parse_instance(table1_text)
        assert isinstance(spec, rk.Selection)
        assert (spec.n, spec.p) == (4, 2)
        expected = [(5, 5, 3, 3), (3, 8, 9, 7), (3, 2, 1, 6)]
        assert np.array_equal(u.costs, np.array(expected, dtype=float))

    def test_minimal_singleton(self):
        u, spec = rk.parse_instance("problem selection\nn 1\np 1\nN 1\nc 0\n")
        assert u.costs.shape == (1, 1)
        assert u.costs[0, 0] == 0.0

    def test_dimension_mismatch_reports_line(self):
        text = "problem selection\nn 4\np 2\nN 1\nc 1 2 3\n"
        with pytest.raises(InstanceFormatError, match="line 5.*3 entries.*expected 4"):
            rk.parse_instance(text)

    def test_negative_cost(self):
        text = "problem selection\nn 2\np 1\nN 1\nc 1 -2\n"
        with pytest.raises(InstanceFormatError, match="negative cost"):
            rk.parse_instance(text)

    def test_unknown_problem(self):
        with pytest.raises(InstanceFormatError, match="unknown problem"):
            rk.parse_instance("problem knapsack\n")

    def test_empty(self):
        with pytest.raises(InstanceFormatError, match="empty"):
            rk.parse_instance("# only a comment\n")

    def test_trailing_garbage(self):
        text = "problem selection\nn 1\np 1\nN 1\nc 0\nextra stuff\n"
        with pytest.raises(InstanceFormatError, match="line 6"):
            rk.parse_instance(text)

    def test_invalid_p(self):
        text = "problem selection\nn 2\np 3\nN 1\nc 1 2\n"
        with pytest.raises(InstanceFormatError, match="p must be"):
            rk.parse_instance(text)

    def test_shortest_path(self):
        text = (
            "problem shortestpath\nedges 3\nedge 0 0 1\nedge 1 1 2\nedge 2 0 2\n"
            "source 0\nsink 2\nN 2\nc 1 1 3\nc 2 2 1\n"
        )
        u, spec = rk.parse_instance(text)
        assert isinstance(spec, rk.ShortestPath)
        assert spec.edges == ((0, 1), (1, 2), (0, 2))
        assert u.n_items == 3

    def test_shortest_path_unreachable_sink(self):
        text = "problem shortestpath\nedges 1\nedge 0 0 1\nsource 0\nsink 5\nN 1\nc 1\n"
        with pytest.raises(InstanceFormatError, match="no path"):
            rk.parse_instance(text)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("# header\nproblem selection 4\nn 4\n", "first directive must be 'problem selection' or 'problem shortestpath'", 2),
            ("problem selection\nm 4\n", "expected 'n <int>'", 2),
            ("problem selection\nn 4\n\np 2 3\n", "expected 'p <int>'", 4),
            ("problem shortestpath\nedges\n", "expected 'edges <int>'", 2),
            ("problem shortestpath\nedges 2\nedge 0 0 1\nedge 1 1\n", "expected 'edge <idx> <from> <to>'", 4),
            ("problem shortestpath\nedges 2\nedge 2 0 1\n", "edge index 2 out of range [0, 2)", 3),
            ("problem shortestpath\nedges 2\nedge 0 0 1\nedge 0 1 2\n", "duplicate edge index 0", 4),
            ("problem shortestpath\nedges 1\nedge 0 0 1\nsink 1\n", "expected 'source <vertex>'", 4),
            ("problem shortestpath\nedges 1\nedge 0 0 1\nsource 0\nsink # end\n", "expected 'sink <vertex>'", 5),
            ("problem shortestpath\nedges 1\nedge 0 0 1\nsource 0\n", "expected 'sink <vertex>'", None),
            ("problem selection\nn 2\np 1\nc 1 2\n", "expected 'N <int>'", 4),
            ("problem selection\nn 2\np 1\nN 2\nc 1 2\nN 2\n", "expected a 'c <v1> ... <vn>' cost row", 6),
            ("problem selection\nn 2\np 1\nN 2\nc 1 2\n", "expected a 'c <v1> ... <vn>' cost row", None),
            ("problem selection\nn 2\np 1\nN 1\nc 1 x\n", "cost entries must be decimal numbers", 5),
            ("problem selection\nn 2\np 1\nN 1\nc 1 inf\n", "cost entries must be finite", 5),
        ],
    )
    def test_malformed_directive(self, text, message, line):
        with pytest.raises(InstanceFormatError) as excinfo:
            rk.parse_instance(text)
        assert excinfo.value.line == line
        assert str(excinfo.value) == (message if line is None else f"line {line}: {message}")


class TestSerializeInstance:
    def test_table1_roundtrip(self, table1, table1_text):
        u, spec = table1
        text = rk.serialize_instance(u, spec)
        u2, spec2 = rk.parse_instance(text)
        assert spec2 == spec
        assert np.array_equal(u2.costs, u.costs)
        # canonical text also parses to the same structures as the fixture file
        u3, spec3 = rk.parse_instance(table1_text)
        assert spec3 == spec and np.array_equal(u3.costs, u.costs)

    def test_singleton_roundtrip(self):
        u = rk.UncertaintySet(np.zeros((1, 1)))
        spec = rk.Selection(n=1, p=1)
        u2, spec2 = rk.parse_instance(rk.serialize_instance(u, spec))
        assert spec2 == spec and np.array_equal(u2.costs, u.costs)

    def test_seeded_instance_roundtrip(self):
        u, spec = rk.generate_instance(7, 3, 4, seed=42)
        u2, spec2 = rk.parse_instance(rk.serialize_instance(u, spec))
        assert spec2 == spec
        assert np.array_equal(u2.costs, u.costs)

    def test_shortest_path_roundtrip(self):
        spec = rk.ShortestPath(edges=((0, 1), (1, 2), (0, 2)), source=0, sink=2)
        u = rk.UncertaintySet(np.array([[1.0, 2.0, 3.0]]))
        u2, spec2 = rk.parse_instance(rk.serialize_instance(u, spec))
        assert spec2 == spec and np.array_equal(u2.costs, u.costs)

    def test_fractional_costs_roundtrip(self):
        u = rk.UncertaintySet(np.array([[0.125, 3.6999999999999997]]))
        u2, _ = rk.parse_instance(rk.serialize_instance(u, rk.Selection(n=2, p=1)))
        assert np.array_equal(u2.costs, u.costs)

    def test_mismatched_spec_rejected(self, table1):
        u, _ = table1
        with pytest.raises(ValueError, match="n=3"):
            rk.serialize_instance(u, rk.Selection(n=3, p=1))
        with pytest.raises(ValueError, match="spec has n=1 but uncertainty set has 4 items"):
            rk.serialize_instance(u, rk.ShortestPath(edges=((0, 1),), source=0, sink=1))
        with pytest.raises(ValueError, match="unsupported problem spec object"):  # before its dimension
            rk.serialize_instance(u, object())


@settings(max_examples=50, deadline=None)
@given(
    costs=st.lists(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    data=st.data(),
)
def test_roundtrip_property(costs, data):
    u = rk.UncertaintySet(np.array(costs, dtype=float))
    p = data.draw(st.integers(min_value=1, max_value=u.n_items))
    spec = rk.Selection(n=u.n_items, p=p)
    u2, spec2 = rk.parse_instance(rk.serialize_instance(u, spec))
    assert spec2 == spec
    assert np.array_equal(u2.costs, u.costs)
