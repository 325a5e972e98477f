import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjj import edge as ed
from hjj import fatten2d as ft
from hjj import hamiltonians as hm


@pytest.fixture(scope="module")
def h_abs1():
    return hm.make_builtin("abs_shift", c=1.0)


@pytest.fixture(scope="module")
def h_abs2():
    return hm.make_builtin("abs_shift", c=2.0)


@pytest.fixture(scope="module")
def H2_max(h_abs1, h_abs2):
    return hm.max_form_2d(h_abs1, h_abs2)


class TestBuildDomain:
    def test_tube_geometry(self):
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        # 4 cells across: 5 gridlines inside the arm cross-section
        j_in = np.abs(dom.x2) <= 0.1 + 1e-12
        i_mid = int(np.argmin(np.abs(dom.x1 + 0.5)))
        assert dom.mask[i_mid, j_in].sum() == 5
        assert dom.mask.any()

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="4 cells"):
            ft.build_fat_domain(1.0, 1.0, 0.2, 0.1)

    def test_width_constraint(self):
        with pytest.raises(ValueError, match="eps < min"):
            ft.build_fat_domain(0.3, 1.0, 0.2, 0.05)

    def test_asymmetric_arms(self):
        dom = ft.build_fat_domain(1.0, 2.0, 0.2, 0.05)
        assert dom.x1[0] <= -1.2 + 1e-12
        assert dom.x2[0] <= -2.2 + 1e-12
        j0 = int(np.argmin(np.abs(dom.x2)))
        arm1 = dom.x1[dom.mask[:, j0]]
        assert arm1.min() == pytest.approx(-1.0, abs=1e-9)

    def test_boundary_cells(self):
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        b = dom.boundary_cells()
        assert b.sum() > 0
        assert not (b & ~dom.mask).any()


class TestSolve:
    def test_max_form_constant(self, H2_max):
        # min H2 = -1, so u = 1 is the exact constrained solution
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.025)
        u2, rep = ft.solve_fat_state_constraint(H2_max, dom)
        assert rep.converged
        # Newton lands on the constant at once; no O(1/h) crawl
        assert rep.method == "newton_2d"
        assert rep.iterations <= 2
        vals = u2.values[dom.mask]
        assert np.max(np.abs(vals - 1.0)) <= 1e-6

    def test_degenerate_single_arm(self, h_abs1):
        H2 = hm.make_hamiltonian2d(
            lambda p1, p2, x1, x2: np.abs(p1) - 1.0,
            level=3.0, coercivity_bound=4.0, source="transverse-free")
        dom = ft.build_rectangle_domain(1.0, 0.2, 0.025)
        u2, rep = ft.solve_fat_state_constraint(H2, dom)
        assert rep.converged
        tr = ft.extract_axis_trace(u2, dom, 1)
        u1, _ = ed.solve_edge(h_abs1, ed.EdgeSpec(1.0, 40),
                              ed.StateConstraint())
        x1d = ed.EdgeSpec(1.0, 40).grid()
        interp = np.interp(tr.edge.grid(), x1d, u1.values)
        assert np.max(np.abs(tr.values - interp)) <= 2e-2
        # constant across the tube
        spread = 0.0
        for i in range(dom.mask.shape[0]):
            row = u2.values[i, dom.mask[i]]
            if row.size > 1:
                spread = max(spread, float(row.max() - row.min()))
        assert spread <= 1e-6

    def test_monotone_from_subsolution_start(self, H2_max):
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        sys_ = ft.FatSystem(H2_max, dom)
        u = sys_.default_init()
        for _ in range(300):
            u_new, R, _ = sys_.step(u)
            assert np.all(u_new >= u - 1e-12)
            u = u_new

    def test_x_dependent_hamiltonian(self, h_abs1, h_abs2):
        H2 = hm.parse_expression_2d(
            "max(abs(p1) - 1, abs(p2) - 2) + 0.3*x1")
        dom = ft.build_fat_domain(0.6, 0.6, 0.2, 0.05)
        u2, rep = ft.solve_fat_state_constraint(H2, dom)
        assert rep.converged
        assert u2.discrete_lipschitz() <= 2.0 * H2.coercivity_bound + 1e-6


def _shifted_max_form():
    return hm.max_form_2d(hm.make_builtin("abs_shift", b=0.3, c=1.0),
                          hm.make_builtin("abs_shift", b=-0.2, c=1.5))


def _x_dependent():
    return hm.parse_expression_2d("max(abs(p1) - 1, abs(p2) - 2) + 0.3*x1")


class TestNewtonDriver:
    # non-degenerate fixtures: unlike the unshifted max forms, their
    # solutions are not constant, so Newton has to iterate
    @pytest.mark.parametrize("make_h", [_shifted_max_form, _x_dependent])
    @pytest.mark.parametrize("eps", [0.2, 0.1])
    def test_residual_certifies_fixed_point(self, make_h, eps):
        # the rows are monotone, so a small residual at the recorded theta
        # pins the scheme's unique fixed point
        H2 = make_h()
        dom = ft.build_fat_domain(1.0, 1.0, eps, eps / 8)
        u2, rep = ft.solve_fat_state_constraint(H2, dom)
        assert rep.converged and rep.flags == ()
        assert rep.method == "newton_2d"
        assert rep.iterations <= 3
        sys_ = ft.FatSystem(H2, dom)
        u = u2.values[dom.mask]
        R, _ = sys_.residual(u, theta=tuple(rep.theta))
        assert np.max(np.abs(R)) <= 1e-7
        _, req = sys_.residual(u)
        for th, r in zip(rep.theta, req):
            assert np.all(th >= r)

    def test_converged_at_recorded_theta(self):
        H2 = _shifted_max_form()
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.025)
        u2, rep = ft.solve_fat_state_constraint(H2, dom)
        sys_ = ft.FatSystem(H2, dom)
        u = u2.values[dom.mask]
        R, _ = sys_.residual(u, theta=tuple(rep.theta))
        assert np.max(np.abs(R)) <= 1e-7
        _, req = sys_.residual(u)
        for th, r in zip(rep.theta, req):
            assert np.all(th >= r)

    def test_line_search_halves_a_tripled_step(self, step_factors):
        # a step three times the Newton direction overshoots; halving it
        # until max|R| decreases still certifies the fixed point
        H2 = _shifted_max_form()
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.025)
        factors = step_factors(ft, scale=3.0)
        u2, rep = ft.solve_fat_state_constraint(H2, dom)
        assert rep.converged and rep.flags == ()
        assert min(factors) < 0.75
        R, _ = ft.FatSystem(H2, dom).residual(u2.values[dom.mask],
                                              theta=tuple(rep.theta))
        assert np.max(np.abs(R)) <= ft.FatSolverParams().tol

    def test_step_cap(self):
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        _, rep = ft.solve_fat_state_constraint(
            _shifted_max_form(), dom, ft.FatSolverParams(max_iters=0))
        assert not rep.converged
        assert rep.method == "newton_2d"
        assert rep.flags == ("max_iters",)
        assert rep.iterations == 0

    def test_stall_is_flagged(self):
        # no step can decrease a residual of a few ulps, so the strict line
        # search gives up long before the cap
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        _, rep = ft.solve_fat_state_constraint(
            _shifted_max_form(), dom, ft.FatSolverParams(tol=1e-300))
        assert not rep.converged
        assert rep.flags == ("newton_stalled",)
        assert rep.iterations < ft.FatSolverParams().max_iters

    @pytest.mark.parametrize("diag", [0.0, np.nan, np.inf],
                             ids=["singular", "nan", "inf"])
    def test_broken_pivot_is_flagged(self, monkeypatch, diag):
        # a zero or non-finite Jacobian breaks the first level's pivot
        # block: the chain solve returns NaN and the line search stalls,
        # no exception
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        n = dom.chain.I.size
        x = dom.chain.solve(np.full(n, diag), np.zeros((4, n)), np.ones(n))
        assert np.all(np.isnan(x))
        monkeypatch.setattr(ft, "_jacobian", lambda sys_, u, theta: (
            np.full(sys_.count, diag), np.zeros((4, sys_.count))))
        _, rep = ft.solve_fat_state_constraint(_shifted_max_form(), dom)
        assert not rep.converged
        assert rep.flags == ("newton_stalled",)
        assert rep.iterations == 0


class TestTrace:
    def test_symmetric_traces_agree(self, h_abs1):
        H2 = hm.max_form_2d(h_abs1, h_abs1)
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        u2, _ = ft.solve_fat_state_constraint(H2, dom)
        t1 = ft.extract_axis_trace(u2, dom, 1)
        t2 = ft.extract_axis_trace(u2, dom, 2)
        assert np.max(np.abs(t1.values - t2.values)) <= 1e-6

    def test_trace_endpoints(self, H2_max):
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        u2, _ = ft.solve_fat_state_constraint(H2_max, dom)
        tr = ft.extract_axis_trace(u2, dom, 1)
        g = tr.edge.grid()
        assert abs(g[-1]) <= dom.h2
        assert abs(g[0] + 1.0) <= dom.h2

    def test_bad_axis(self, H2_max):
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        u2, _ = ft.solve_fat_state_constraint(H2_max, dom)
        with pytest.raises(ValueError, match="axis"):
            ft.extract_axis_trace(u2, dom, 3)


class TestStudy:
    def test_max_form_convergence(self, H2_max):
        rep = ft.fattening_study(H2_max, [0.2, 0.1], n_1d=200)
        assert rep.reference_converged
        errs = [r.trace_error for r in rep.records]
        assert errs[1] <= errs[0] + 1e-9
        assert errs[1] <= 0.1
        for r in rep.records:
            assert r.converged
            assert r.node_super_residual >= -5e-2
            assert max(r.reduced_residuals) <= 3.0 * (r.epsilon + r.h2)

    def test_anisotropic_quadratic(self):
        H2 = hm.parse_expression_2d("p1^2 + 10*p2^2 - 2")
        rep = ft.fattening_study(
            H2, [0.2], a1=0.5, a2=0.5, h2_over_eps=0.25, n_1d=160,
            solver_params=ed.SolverParams(method="sweep"))
        assert rep.reference_converged
        r = rep.records[0]
        assert r.converged
        # traces obey their own reduced equations even though the joint
        # Hamiltonian is not the max of the reductions
        assert max(r.reduced_residuals) <= 0.1
        assert abs(r.node_value - rep.reference_node_value) <= 0.1

    def test_fixed_spacing_matches_per_eps_studies(self, H2_max):
        fixed = ft.fattening_study(H2_max, [0.2, 0.1], n_1d=100, h2=0.025)
        for rec in fixed.records:
            part = ft.fattening_study(H2_max, [rec.epsilon], n_1d=100,
                                      h2_over_eps=0.025 / rec.epsilon)
            (ref,) = part.records
            assert rec.h2 == pytest.approx(0.025, abs=1e-12)
            assert rec.method == ref.method and rec.flags == ref.flags
            for name in ("h2", "node_value", "trace_error",
                         "node_super_residual"):
                assert getattr(rec, name) == pytest.approx(
                    getattr(ref, name), abs=1e-12)
            assert np.allclose(rec.reduced_residuals, ref.reduced_residuals,
                               rtol=0.0, atol=1e-12)

    def test_eps_order_validated(self, H2_max):
        with pytest.raises(ValueError, match="decrease"):
            ft.fattening_study(H2_max, [0.1, 0.2])


class TestSchemeProperties:
    def test_interior_monotonicity(self, H2_max):
        rng = np.random.default_rng(5)
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.05)
        sys_ = ft.FatSystem(H2_max, dom)
        interior = np.nonzero((sys_.mode1 == 0) & (sys_.mode2 == 0))[0]
        theta = (np.full(sys_.count, 1.5), np.full(sys_.count, 1.5))
        for _ in range(100):
            u = rng.uniform(-1.0, 1.0, sys_.count) * dom.h2 * 4
            j = int(rng.choice(interior))
            nbr = int(rng.choice([sys_.iE[j], sys_.iW[j],
                                  sys_.iN[j], sys_.iS[j]]))
            delta = rng.uniform(0, dom.h2)
            un, _, _ = sys_.step(u, theta=theta)
            u2 = u.copy()
            u2[nbr] += delta
            un2, _, _ = sys_.step(u2, theta=theta)
            assert un2[j] >= un[j] - 1e-12

    def test_lipschitz_bound(self, H2_max):
        dom = ft.build_fat_domain(1.0, 1.0, 0.2, 0.025)
        u2, _ = ft.solve_fat_state_constraint(H2_max, dom)
        assert u2.discrete_lipschitz() <= 2.0 * H2_max.coercivity_bound


_ROW_PART = st.tuples(st.sampled_from(["abs_shift", "quadratic",
                                      "double_well"]),
                     st.floats(-0.5, 0.5), st.floats(0.5, 2.0))


_COUPLED = ("(p1 - 0.3)^2 + 2*(p2 + 0.17)^2 + 0.8*(p1 - 0.3)*(p2 + 0.17) - 1"
            " + 0.2*x1")


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.one_of(st.sampled_from(["x-dependent", "coupled"]),
                 st.tuples(_ROW_PART, _ROW_PART)),
       st.integers(0, 2 ** 32 - 1))
def test_boundary_and_corner_rows_monotone(parts, seed):
    # raising a neighbour of a boundary or corner cell by at most h2 never
    # raises that cell's residual at the scheme's own theta; the coupled
    # quadratic has its joint minimum off the slope grid
    if parts == "x-dependent":
        H2 = _x_dependent()
    elif parts == "coupled":
        H2 = hm.parse_expression_2d(_COUPLED)
    else:
        H2 = hm.max_form_2d(*[hm.make_builtin(f, b=b, c=c)
                              for f, b, c in parts])
    dom = ft.build_fat_domain(0.6, 0.6, 0.2, 0.05)
    sys_ = ft.FatSystem(H2, dom)
    rng = np.random.default_rng(seed)
    for cells in (sys_.side1, sys_.side2, sys_.corner):
        for _ in range(3):
            u = rng.uniform(-1.0, 1.0, sys_.count) * dom.h2 * 4
            j = int(rng.choice(cells))
            nbrs = [n[j] for n in (sys_.iE, sys_.iW, sys_.iN, sys_.iS)
                    if n[j] >= 0]
            u2 = u.copy()
            u2[int(rng.choice(nbrs))] += rng.uniform(0.0, dom.h2)
            _, th_a = sys_.residual(u)
            _, th_b = sys_.residual(u2)
            theta = tuple(np.maximum(a, b) for a, b in zip(th_a, th_b))
            R, _ = sys_.residual(u, theta)
            R2, _ = sys_.residual(u2, theta)
            assert R2[j] <= R[j] + 1e-12


def test_two_component_mask_rejected():
    mask = np.zeros((6, 6), dtype=bool)
    mask[:2, :2] = mask[4:, 4:] = True
    with pytest.raises(ValueError, match="not connected"):
        ft.LevelChain(mask)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.booleans(), st.floats(0.08, 0.2), st.integers(4, 6),
       st.floats(0.45, 1.0), st.floats(0.45, 1.0), st.integers(0, 2 ** 32 - 1))
def test_level_chain_solves_five_point_m_matrices(rect, eps, cells, a1, a2,
                                                  seed):
    # random strictly diagonally dominant M-matrices on the tube's stencil,
    # some off-diagonal entries 0 as after the Jacobian's projection
    dom = (ft.build_rectangle_domain(a1, eps, eps / cells) if rect
           else ft.build_fat_domain(a1, a2, eps, eps / cells))
    chain = dom.chain
    has, n = chain.nbrs >= 0, chain.I.size
    lev = chain.level
    assert np.all(np.abs(lev[chain.nbrs[has]]
                         - np.broadcast_to(lev, has.shape)[has]) <= 1)
    rng = np.random.default_rng(seed)
    off = np.where(has & (rng.uniform(size=has.shape) < 0.8),
                   -rng.uniform(0.0, 2.0, has.shape), 0.0)
    diag = -off.sum(axis=0) + rng.uniform(1e-3, 1.0, n)
    A = np.diag(diag)
    for d in range(4):
        A[np.arange(n)[has[d]], chain.nbrs[d][has[d]]] = off[d][has[d]]
    b = rng.normal(size=n)
    want = np.linalg.solve(A, b)
    got = chain.solve(diag, off, b)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
