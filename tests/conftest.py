import numpy as np
import pytest

import robustkit as rk

# Worked example: 3 scenarios over 4 items, choose 2.
TABLE1_COSTS = np.array(
    [
        [5.0, 5.0, 3.0, 3.0],
        [3.0, 8.0, 9.0, 7.0],
        [3.0, 2.0, 1.0, 6.0],
    ]
)

# Cost scales under which t* must stay put and the bounds scale along.
COST_SCALES = [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e7, 1e8, 1e9]

TABLE1_TEXT = """\
# robust-instance v1
problem selection
n 4
p 2
N 3
c 5 5 3 3
c 3 8 9 7
c 3 2 1 6
"""


@pytest.fixture
def table1():
    return rk.UncertaintySet(TABLE1_COSTS.copy()), rk.Selection(n=4, p=2)


@pytest.fixture
def table1_text():
    return TABLE1_TEXT


def paper_cell_instances(count):
    """count instances of each paper cell, (10,3,10), (20,6,50) and (30,9,100)."""
    cells = [(10, 3, 10), (20, 6, 50), (30, 9, 100)]
    return [rk.generate_instance(*cell, rk.derive_seed(5, *cell, i)) for cell in cells for i in range(count)]
