import numpy as np
import pytest


def _dense_arrowhead(jac):
    """The dense matrix of a Jacobian in junction.solve_arrowhead's form."""
    blocks, node_row, node_diag = jac
    size = sum(len(b[1]) for b in blocks) + 1
    J = np.zeros((size, size))
    a = 0
    for (sub, diag, sup, *far2), row in zip(blocks, node_row):
        idx = a + np.arange(len(diag))
        up = np.append(idx[1:], size - 1)
        J[idx, idx] = diag
        J[idx[1:], idx[:-1]] = sub[1:]
        J[idx, up] = sup
        if far2:
            J[a, up[1]] += far2[0]
        for j, v in row.items():
            J[-1, a + j] += v
        a += len(diag)
    J[-1, -1] = node_diag
    return J


@pytest.fixture(scope="session")
def dense_arrowhead():
    return _dense_arrowhead
