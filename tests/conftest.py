import numpy as np
import pytest
from hypothesis import settings

from hjj import edge as ed
from hjj import junction as jn

# every property test is reproducible and untimed; each sets its own
# max_examples
settings.register_profile("hjj", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("hjj")


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


def _sweep_solve(problem, tol=ed.SolverParams().tol):
    """The Godunov Gauss-Seidel sweeps alone on the finest grid of problem,
    the oracle of the Newton cascade, as a solve_system-like (solution,
    report) pair."""
    jd = jn.JunctionDiscretization(problem)
    us, u0, sweeps, res, flag = jn._sweeps(jd, tol)
    grids = [ed.GridFunction1D(u, e) for u, e in zip(us, problem.edges)]
    rep = ed.SolveReport(sweeps, res, res <= tol, 0.0, "sweeps",
                         flux="godunov", flags=(flag,) if flag else ())
    return jn.JunctionGridFunction(grids, u0), rep


@pytest.fixture(scope="session")
def sweep_solve():
    return _sweep_solve


@pytest.fixture
def step_factors(monkeypatch):
    """install(module, scale) makes module.newton, the shared Newton
    driver as that module calls it, take scale times each solved step, and
    returns the list it fills with the step factor of every point the
    driver evaluates after a step: a trial of the line search, or an
    accepted point whose residual is redone at a raised theta."""
    def install(module, scale=1.0):
        factors = []
        driver = jn.newton

        def newton(residual, step, z, *args, **kwargs):
            last = []

            def scaled(z, R, theta):
                last[:] = [z, scale * step(z, R, theta)]
                return last[1]

            def logged(z, theta):
                if last:
                    z0, dz = last
                    k = np.argmax(np.abs(dz))
                    factors.append((z[k] - z0[k]) / dz[k])
                return residual(z, theta)
            return driver(logged, scaled, z, *args, **kwargs)

        monkeypatch.setattr(module, "newton", newton)
        return factors
    return install
