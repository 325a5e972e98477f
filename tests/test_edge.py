import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjj import edge as ed
from hjj import hamiltonians as hm
from hjj import junction as jn


@pytest.fixture(scope="module")
def h_abs():
    return hm.make_builtin("abs_shift", b=0.0, c=1.0)


@pytest.fixture(scope="module")
def h_quad():
    return hm.make_builtin("quadratic", b=1.0, c=1.0)


@pytest.fixture(scope="module")
def spec400():
    return ed.EdgeSpec(1.0, 400)


@pytest.fixture(scope="module")
def sc_abs(h_abs, spec400):
    return ed.solve_edge(h_abs, spec400, ed.StateConstraint())


@pytest.fixture(scope="module")
def dir_abs(h_abs, spec400):
    # analytic solution u_c(x) = 1 + (c-1)e^x: substituting gives
    # u + |u_x| - 1 = 1 + (c-1)e^x + (1-c)e^x - 1 = 0 for c < 1
    return ed.solve_edge(h_abs, spec400, ed.Dirichlet(0.0), sc_value=1.0)


class TestEdgeSpec:
    def test_grid(self):
        s = ed.EdgeSpec(2.0, 10)
        g = s.grid()
        assert g[0] == -2.0 and g[-1] == 0.0 and len(g) == 11
        assert s.h == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            ed.EdgeSpec(-1.0, 100)
        with pytest.raises(ValueError):
            ed.EdgeSpec(1.0, 4)
        with pytest.raises(ValueError):
            ed.EdgeSpec(1.0, 100, far_bc="reflecting")


class TestEdgeTables:
    def test_shared_across_node_conditions(self):
        H = hm.make_builtin("abs_shift", b=0.1, c=1.0)
        spec = ed.EdgeSpec(1.0, 32)
        pinned = ed.EdgeDiscretization(H, spec, ed.Dirichlet(0.0))
        owned = ed.EdgeDiscretization(H, spec, "external")
        assert owned.theta_tab is pinned.theta_tab
        assert owned.env_node is pinned.env_node
        assert pinned.env_node is not None
        assert pinned.coarsened(16).theta_tab is pinned.theta_tab

    def test_new_level_gets_new_tables(self):
        H = hm.make_builtin("abs_shift", b=0.1, c=1.0)
        spec = ed.EdgeSpec(1.0, 32)
        higher = hm.ensure_level(H, H.coercivity_level + 4.0)
        assert higher.coercivity_bound > H.coercivity_bound
        assert ed.EdgeDiscretization(higher, spec, "external").theta_tab \
            is not ed.EdgeDiscretization(H, spec, "external").theta_tab

    def test_entry_dropped_with_hamiltonian(self):
        H = hm.make_builtin("quadratic", b=0.2, c=1.0)
        disc = ed.EdgeDiscretization(H, ed.EdgeSpec(1.0, 32),
                                     ed.StateConstraint())
        (key,) = [r for r in ed._TABLES.keyrefs() if r() is H]
        alive = weakref.ref(H)
        # only reference counting may free H here: a reference from the
        # tables back to H would keep the entry, and the collector must
        # not break such a cycle behind the test's back
        gc.disable()
        try:
            del H, disc
            assert alive() is None
            assert all(r is not key for r in ed._TABLES.keyrefs())
        finally:
            gc.enable()


def lf_row(H, pm, pp, theta):
    """Lax-Friedrichs flux F(p-, p+) at theta: interior row 4 of an
    8-cell edge, u_4 = 0 and the slopes p- and p+ on either side."""
    h = 0.125
    u = np.zeros(9)
    u[3], u[5] = -pm * h, pp * h
    disc = ed.EdgeDiscretization(H, ed.EdgeSpec(1.0, 8), "external")
    return disc.residual(u, theta=theta)[0][4]


class TestLaxFriedrichsFlux:
    def test_consistency(self, h_abs):
        assert lf_row(h_abs, 1.0, 1.0, 1.0) == 0.0

    def test_dissipation(self, h_abs):
        assert lf_row(h_abs, 0.0, 2.0, 1.0) == -1.0

    def test_quadratic(self, h_quad):
        assert lf_row(h_quad, 2.0, 0.0, 4.0) == 3.0


def node_row(H, u0, u_in):
    """Node row of a K = 1 state-constraint junction on a 10-cell edge,
    u0 + min over q in [p_in, P] of H(q, 0) with p_in = (u0 - u_in)/h."""
    u = np.zeros(11)
    u[-2:] = u_in, u0
    jd = jn.JunctionDiscretization(
        jn.JunctionProblem([ed.EdgeSpec(1.0, 10)], [H]))
    return jd.node_residual([u], u0)


class TestBoundaryResidual:
    def test_state_constraint_solution_residual_zero(self, h_abs):
        assert node_row(h_abs, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_inward_slope(self, h_abs):
        assert node_row(h_abs, 0.0, 0.1) == pytest.approx(-1.0, abs=1e-12)

    def test_quadratic(self, h_quad):
        assert node_row(h_quad, 0.0, 0.2) == pytest.approx(-1.0, abs=1e-12)


class TestSolveEdge:
    def test_state_constraint_constant(self, sc_abs):
        u, rep = sc_abs
        assert rep.converged
        assert np.max(np.abs(u.values - 1.0)) <= 1e-2
        assert u.role == "state_constraint"

    def test_dirichlet_analytic(self, dir_abs, spec400):
        u, rep = dir_abs
        assert rep.converged
        exact = 1.0 - np.exp(spec400.grid())
        assert np.max(np.abs(u.values - exact)) <= 1e-2

    def test_shifted_level(self, spec400):
        H = hm.make_builtin("abs_shift", b=0.0, c=2.0)
        u, rep = ed.solve_edge(H, spec400, ed.StateConstraint())
        assert np.max(np.abs(u.values - 2.0)) <= 1e-2

    def test_dirichlet_above_sc_detaches(self, h_abs, spec400):
        u, rep = ed.solve_edge(h_abs, spec400, ed.Dirichlet(2.0))
        assert "dirichlet_not_attained" in rep.flags
        assert np.max(np.abs(u.values - 1.0)) <= 1e-2

    def test_far_dirichlet(self, h_abs):
        # rising branch from u(-1) = 0: u + u_x - 1 = 0 gives
        # u(x) = 1 - exp(-(x+1)); at the node the supersolution envelope
        # min over q >= e^{-1} of |q|-1 equals e^{-1}-1 = -u(0)
        spec = ed.EdgeSpec(1.0, 400, far_bc=ed.Dirichlet(0.0))
        u, rep = ed.solve_edge(h_abs, spec, ed.StateConstraint())
        exact = 1.0 - np.exp(-(spec.grid() + 1.0))
        assert rep.converged
        assert np.max(np.abs(u.values - exact)) <= 1e-2

    def test_far_state_constraint(self, h_abs):
        spec = ed.EdgeSpec(1.0, 400, far_bc=ed.StateConstraint())
        u, rep = ed.solve_edge(h_abs, spec, ed.StateConstraint())
        assert rep.converged
        assert np.max(np.abs(u.values - 1.0)) <= 1e-2

    def test_non_convergence_reported(self, h_quad, spec400):
        # abs_shift converges in one Newton step; the quadratic needs more
        params = ed.SolverParams(max_iters=1)
        u, rep = ed.solve_edge(h_quad, spec400, ed.StateConstraint(), params)
        assert rep.method == "newton" and rep.iterations == 1
        assert not rep.converged and rep.flags == ("max_iters",)
        assert rep.final_residual > params.tol

    def test_lipschitz_bound(self, sc_abs, dir_abs, h_abs):
        for u, rep in (sc_abs, dir_abs):
            assert u.discrete_lipschitz() <= 2.0 * h_abs.coercivity_bound
            assert "lipschitz_exceeded" not in rep.flags


class TestStiffHamiltonian:
    def test_double_well_sweep_residual(self, sweep_solve):
        # non-convex, so the edge solve runs the Godunov cascade; it and
        # the sweeps alone solve the Godunov scheme, and each answer is
        # certified by re-evaluating the Godunov residual
        H = hm.make_builtin("double_well", b=-2.0, c=0.0)
        spec = ed.EdgeSpec(1.0, 64, far_bc=ed.StateConstraint())
        prob = jn.JunctionProblem([spec], [H], ed.StateConstraint())
        tol = ed.SolverParams().tol
        u, rep = ed.solve_edge(H, spec, ed.StateConstraint())
        assert rep.method == "godunov_newton"
        for sol, r in ((jn.JunctionGridFunction([u], u.node_value), rep),
                       sweep_solve(prob)):
            assert r.flux == "godunov" and r.converged
            Rs, r0 = jn.junction_scheme_residuals(sol, prob, r)
            assert abs(r0) <= tol
            assert np.max(np.abs(Rs[0])) <= tol

    def test_godunov_flux_consistency(self):
        H = hm.make_builtin("double_well", b=-2.0, c=0.0)
        spec = ed.EdgeSpec(1.0, 64)
        disc = ed.EdgeDiscretization(H, spec, ed.StateConstraint())
        for p in (-3.3, -2.0, -0.5, 1.2):
            assert float(disc.godunov_flux(p, p, 0.0)) == pytest.approx(
                float(H(p)), abs=1e-12)
        # min over [-3, -1] hits the well at -3 and -1 (value 0)
        assert float(disc.godunov_flux(-3.0, -1.0, 0.0)) == pytest.approx(0.0)
        # max over [-3, -1] hits the hump at -2 (value 1)
        assert float(disc.godunov_flux(-1.0, -3.0, 0.0)) == pytest.approx(1.0)


class TestNodeSlope:
    def test_analytic_dirichlet_slope(self, dir_abs):
        u, _ = dir_abs
        assert ed.node_slope(u, order=2) == pytest.approx(-1.0, abs=3e-3)

    def test_constant(self, spec400):
        g = ed.GridFunction1D(np.full(401, 3.0), spec400)
        assert ed.node_slope(g, 1) == 0.0
        assert ed.node_slope(g, 2) == 0.0

    def test_linear_exact(self, spec400):
        g = ed.GridFunction1D(2.5 * spec400.grid() + 1.0, spec400)
        assert ed.node_slope(g, 1) == pytest.approx(2.5, abs=1e-9)
        assert ed.node_slope(g, 2) == pytest.approx(2.5, abs=1e-9)


class TestOneSidedQuotients:
    def test_smooth(self, dir_abs):
        u, _ = dir_abs
        p_bar, p_under = ed.one_sided_quotients(u, window=8)
        assert p_bar == pytest.approx(-1.0, abs=0.05)
        assert p_under == pytest.approx(-1.0, abs=0.05)
        assert p_bar >= p_under

    def test_kink_function(self, spec400):
        g = ed.GridFunction1D(np.abs(spec400.grid()), spec400)
        p_bar, p_under = ed.one_sided_quotients(g, window=5)
        assert p_bar == pytest.approx(-1.0, abs=1e-12)
        assert p_under == pytest.approx(-1.0, abs=1e-12)

    def test_constant(self, spec400):
        g = ed.GridFunction1D(np.zeros(401), spec400)
        assert ed.one_sided_quotients(g, window=4) == (0.0, 0.0)

    def test_window_validation(self, spec400):
        g = ed.GridFunction1D(np.zeros(401), spec400)
        with pytest.raises(ValueError):
            ed.one_sided_quotients(g, window=300)


class TestDirichletStructure:
    def test_abs_family(self, h_abs, spec400):
        cs = [-1.0, -0.5, 0.0, 0.5]
        rep = ed.check_dirichlet_structure(h_abs, spec400, cs)
        assert rep.passed
        np.testing.assert_allclose(rep.node_slopes,
                                   np.asarray(cs) - 1.0, atol=5e-3)
        assert abs(rep.equation_residuals[2]) <= 1e-2

    def test_quadratic_branch(self, h_quad, spec400):
        # c + (s-1)^2 - 1 = 0 on the decreasing branch: s = 1 - sqrt(1+c)...
        # at c = -1: s = 1 - sqrt(2)
        rep = ed.check_dirichlet_structure(h_quad, spec400, [-1.0])
        assert rep.passed
        assert rep.node_slopes[0] == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-2)

    def test_rejects_c_above_sc(self, h_abs, spec400):
        with pytest.raises(ValueError, match="state-constraint value"):
            ed.check_dirichlet_structure(h_abs, spec400, [0.0, 1.5])


_COEF = st.integers(-200, 200).map(lambda i: i / 100)
_LEVEL = st.integers(0, 200).map(lambda i: i / 100)
_EXPRESSIONS = (
    "abs(p-({b}))-{c}+{a}*sin({w}*x)",
    "{k}*(p-({b}))^2-{c}+{a}*cos({w}*x)",
    "max(abs(p-({b})),{k}*(p-({b}))^2)-{c}+{a}*sin({w}*x)^2",
)


@st.composite
def hamiltonians(draw):
    """The builtin families and x-dependent parsed expressions."""
    b, c = draw(_COEF), draw(_LEVEL)
    form = draw(st.sampled_from(
        ("abs_shift", "quadratic", "double_well") + _EXPRESSIONS))
    if form in _EXPRESSIONS:
        src = form.format(b=b, c=c, a=draw(_LEVEL) / 2, w=3 * draw(_LEVEL),
                          k=0.5 + draw(_LEVEL) / 2)
        return hm.make_builtin("expression", src=src)
    return hm.make_builtin(form, b=b, c=c)


far_conditions = st.one_of(
    st.builds(ed.Neumann, _COEF), st.builds(ed.Dirichlet, _COEF),
    st.just(ed.StateConstraint()))

seeds = st.integers(0, 2 ** 32 - 1)

properties = settings(max_examples=100)


class TestSchemeProperties:
    @properties
    @given(H=hamiltonians(), far=far_conditions, seed=seeds,
           trials=st.just(20))
    @example(H=hm.make_builtin("quadratic", b=1.0, c=1.0),
             far=ed.Neumann(0.0), seed=7, trials=200)
    def test_interior_monotonicity(self, H, far, seed, trials):
        # one pseudo-time step under the CFL constraint is nondecreasing in
        # the neighbours and moves by at most the centre's own increment;
        # theta covers the drawn slopes and the unit a perturbation of at
        # most h can add to them
        rng = np.random.default_rng(seed)
        spec = ed.EdgeSpec(1.0, 64, far_bc=far)
        disc = ed.EdgeDiscretization(H, spec, ed.StateConstraint())
        P = H.coercivity_bound
        theta = disc.theta_tab.range_max(-2 * P - 1, 2 * P + 1)
        for _ in range(trials):
            u = np.cumsum(rng.uniform(-2 * P, 2 * P, 65) * spec.h)
            j = rng.integers(1, 64)
            k = int(rng.choice([j - 1, j + 1]))
            delta = rng.uniform(0, spec.h)
            un, _, _ = disc.pseudo_time_step(u, theta=theta)
            u2 = u.copy()
            u2[k] += delta
            un2, _, _ = disc.pseudo_time_step(u2, theta=theta)
            assert un2[j] >= un[j] - 1e-12
            u3 = u.copy()
            u3[j] += delta
            un3, _, _ = disc.pseudo_time_step(u3, theta=theta)
            assert un3[j] <= un[j] + delta + 1e-12

    @properties
    @given(H=hamiltonians(), far=far_conditions, seed=seeds,
           trials=st.just(10))
    @example(H=hm.make_builtin("abs_shift", b=0.0, c=1.0),
             far=ed.Neumann(0.0), seed=11, trials=100)
    def test_comparison_one_step(self, H, far, seed, trials):
        # v <= u stays ordered after one step on every row, boundary rows
        # included, when theta bounds |dH/dp| over the whole slope span
        rng = np.random.default_rng(seed)
        spec = ed.EdgeSpec(1.0, 64, far_bc=far)
        disc = ed.EdgeDiscretization(H, spec, ed.StateConstraint())
        theta = 2.0 * disc.theta_tab.global_max
        for _ in range(trials):
            u = np.cumsum(rng.uniform(-1, 1, 65) * spec.h)
            v = u - rng.uniform(0, 1, 65)
            un, _, _ = disc.pseudo_time_step(u, theta=theta)
            vn, _, _ = disc.pseudo_time_step(v, theta=theta)
            assert np.all(vn <= un + 1e-12)

    @properties
    @given(edges=st.lists(st.tuples(hamiltonians(), far_conditions),
                          min_size=1, max_size=2),
           node=st.one_of(st.just(ed.StateConstraint()),
                          st.builds(ed.Dirichlet, _COEF),
                          st.builds(jn.FluxLimited, _COEF)))
    def test_sweep_start_is_supersolution(self, edges, node):
        # the sweeps descend from the constant lift max(super_level): its
        # Godunov residual is nonnegative on every free row and the node
        jd = jn.JunctionDiscretization(jn.JunctionProblem(
            [ed.EdgeSpec(1.0, 32, far_bc=far) for _, far in edges],
            [H for H, _ in edges], node))
        lift = max(d.super_level for d in jd.discs)
        z = jd.pin(np.full(jd.size, lift))
        Rs, r0 = jd.residuals(jd.split(z), float(z[-1]), flux="godunov")
        assert r0 >= 0.0
        for d, R in zip(jd.discs, Rs):
            assert np.all(R[~d.pinned] >= 0.0)

    @properties
    @pytest.mark.parametrize("flux", ["lax_friedrichs", "godunov"])
    @given(H=hamiltonians(), far=far_conditions, seed=seeds)
    # a critical slope that drifts with x: the midpoint samples win on
    # some rows, and the selected derivative can have the wrong sign
    @example(H=hm.make_builtin("expression",
                               src="(p-0.8*sin(3*x))^2-1"),
             far=ed.Neumann(0.3), seed=5)
    @example(H=hm.make_builtin("double_well", b=0.5, c=0.3),
             far=ed.StateConstraint(), seed=3)
    @example(H=hm.make_builtin("expression", src="abs(p-0.4)-1+sin(2*x)"),
             far=ed.Dirichlet(-0.5), seed=7)
    def test_jacobian(self, flux, H, far, seed):
        # every row is an M-matrix row with unit row sum, a pinned far row
        # an identity row, and every entry the projected central
        # difference of the unclamped residual at fixed theta on rows where
        # the difference sees no kink: the Godunov selection does not
        # change, and H at the Lax-Friedrichs averaged slope, or env_far
        # on a state-constraint far row, has no kink
        rng = np.random.default_rng(seed)
        spec = ed.EdgeSpec(1.0, 64, far_bc=far)
        disc = ed.EdgeDiscretization(H, spec, "external")
        h, P = spec.h, H.coercivity_bound
        u = np.cumsum(rng.uniform(-2 * P, 2 * P, 65) * h)
        # the theta Newton holds after its first point at u
        theta = ed.raised_theta(None, disc.required_theta(u)) \
            if flux == "lax_friedrichs" else None
        _, (sub, diag, sup) = disc.rows(u, theta, flux, clamp=False,
                                        partials=True)
        assert np.all(sub <= 0.0) and np.all(sup <= 0.0)
        # unit row sums, up to the rounding of entries of size diag
        assert np.all(np.abs(sub + diag + sup - 1.0) <= 4 * np.spacing(diag))
        rows = slice(0, 64)
        if isinstance(far, ed.Dirichlet):
            assert (sub[0], diag[0], sup[0]) == (0.0, 1.0, 0.0)
            rows = slice(1, 64)

        def selection(u):
            pm, pp = disc._slope_pairs(np.diff(u) / h)
            cands = disc.godunov_candidates(pm, pp)
            vals = H(cands, disc.x[:-1])
            up = pm <= pp
            k = np.where(up, vals.argmin(0), vals.argmax(0))
            s = np.take_along_axis(cands, k[None], axis=0)[0]
            return np.stack([up, k, s == np.minimum(pm, pp),
                             s == np.maximum(pm, pp)])

        def smooth(f, q, x):
            # no kink of f(., x) within 1e-6 (1 + |q|) of q
            s = 1e-6 * (1.0 + np.abs(q))
            lo, mid, hi = f(np.array([q - s, q, q + s]), x)
            fwd, bwd = (hi - mid) / s, (mid - lo) / s
            return np.abs(fwd - bwd) <= 1e-3 * (1.0 + np.abs(fwd))

        pm, pp = disc._slope_pairs(np.diff(u) / h)
        stable = np.ones(64, dtype=bool) if flux == "godunov" \
            else smooth(H, 0.5 * (pm + pp), disc.x[:-1])
        base = selection(u)
        fd = np.zeros((3, 64))  # d R_j / d u_{j-1}, u_j, u_{j+1}
        delta = 1e-7 * h
        j = np.arange(64)
        for r in range(3):
            e = delta * (np.arange(65) % 3 == r)
            Rp, Rm = (disc.residual(u + s * e, theta, flux,
                                    clamp=False)[0][:-1]
                      for s in (1.0, -1.0))
            if flux == "godunov":
                for v in (u + e, u - e):
                    stable &= np.all(selection(v) == base, axis=0)
            offset = (r - j) % 3  # 0: u_j, 1: u_{j+1}, 2: u_{j-1}
            fd[(offset + 1) % 3, j] = (Rp - Rm) / (2.0 * delta)
        if isinstance(far, ed.StateConstraint):
            stable[0] = smooth(lambda q, x: disc.env_far(q), pp[0], 0.0)
        Fm = np.maximum(-h * fd[0], 0.0)
        Fp = np.minimum(h * fd[2], 0.0)
        keep = stable[rows]
        assert keep.sum() >= 32
        for lin, ref in ((sub, -Fm / h), (sup, Fp / h),
                         (diag, 1.0 + (Fm - Fp) / h)):
            np.testing.assert_allclose(lin[rows][keep], ref[rows][keep],
                                       rtol=1e-5, atol=1e-5 / h)

    def test_consistency_order_h(self, h_abs):
        # scheme residual of the sampled analytic solution is O(h)
        cs = []
        for n in (100, 200):
            spec = ed.EdgeSpec(1.0, n)
            disc = ed.EdgeDiscretization(h_abs, spec, ed.Dirichlet(0.0))
            exact = 1.0 - np.exp(spec.grid())
            R, _ = disc.residual(exact)
            cs.append(np.max(np.abs(R)) / spec.h)
        assert cs[1] <= 1.5 * cs[0] + 0.05

    def test_convergence_order(self, h_abs):
        errs = []
        for n in (100, 200, 400):
            spec = ed.EdgeSpec(1.0, n)
            u, rep = ed.solve_edge(h_abs, spec, ed.Dirichlet(0.0), sc_value=1.0)
            exact = 1.0 - np.exp(spec.grid())
            errs.append(np.max(np.abs(u.values - exact)))
        orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
        assert np.all(orders >= 0.9)


def _clip_stack_candidates(disc, pm, pp):
    """The Godunov candidates built one np.clip per critical slope and
    stacked: the reference godunov_candidates must equal bit for bit."""
    pm = np.asarray(pm, dtype=float)
    pp = np.asarray(pp, dtype=float)
    lo, hi = np.minimum(pm, pp), np.maximum(pm, pp)
    return np.stack([pm, pp] + [np.clip(c, lo, hi) for c in disc.crit]
                    + [lo + t * (hi - lo) for t in ed.GODUNOV_MIDPOINTS])


def _bisection_root(f, v0):
    """Root of a scalar increasing f with slope >= 1 by plain bisection on
    the bracket the slope bound gives, to the last representable digit."""
    f0 = f(v0)
    width = abs(f0) * (1.0 + 1e-9) + 1e-12
    lo, hi = (v0 - width, v0) if f0 > 0 else (v0, v0 + width)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid


# slopes to the neighbour values, as multiples of the clamp span S = 2P + 2
_SPANS = st.integers(-300, 300).map(lambda i: i / 100)
# the 100-step loop of _solve_increasing and its first evaluation
_NODAL_CAP = 101


@st.composite
def nodal_rows(draw):
    """One nodal equation (H, H2, far, n, row, v0, left, right): row "far"
    (row 0, or row 1 behind a pinned Dirichlet far end), "interior" or
    "node"; left and right are the neighbour values, for the node row its
    neighbours on the edges of H and H2. Their slopes from v0 reach 3 S,
    so the penalty terms are active and a double well's first residual
    reaches 1e4."""
    H, H2 = draw(hamiltonians()), draw(hamiltonians())
    far, n = draw(far_conditions), draw(st.sampled_from((12, 200)))
    row = draw(st.sampled_from(("far", "interior", "node")))
    v0, a, b = draw(_COEF), draw(_SPANS), draw(_SPANS)
    span = lambda G: (2.0 * G.coercivity_bound + 2.0) / n
    left = v0 - a * span(H)
    right = v0 - b * span(H2) if row == "node" else v0 + b * span(H)
    return H, H2, far, n, row, v0, left, right


class TestNodalSolve:
    @properties
    @given(case=nodal_rows())
    # the root sits on the kink of |p|: the residual's slope is 1 on one
    # side and 1 + 1/h = 13 on the other (39 Illinois calls)
    @example(case=(hm.ensure_level(hm.make_builtin("abs_shift", c=1.0), 11.0),
                   hm.make_builtin("abs_shift", c=1.0), ed.StateConstraint(),
                   12, "interior", 2.0, 0.9999999003405889, 2.0))
    # the node row of the double well + abs junction at its sweeps' start:
    # the double well at the clamped slope gives f0 = 2.2e4 (65 calls)
    @example(case=(hm.ensure_level(
                       hm.make_builtin("double_well", b=-2.0, c=0.0), 11.0),
                   hm.ensure_level(hm.make_builtin("abs_shift", c=1.0), 11.0),
                   ed.StateConstraint(), 200, "node", 2.0,
                   -0.7358838279660489, 0.9999999990008989))
    def test_matches_bisection(self, case):
        H, H2, far, n, row, v0, left, right = case
        tol = 1e-9
        spec = ed.EdgeSpec(1.0, n, far_bc=far)
        if row == "node":
            jd = jn.JunctionDiscretization(
                jn.JunctionProblem([spec, spec], [H, H2]))
            us = [np.full(n + 1, v0) for _ in range(2)]
            us[0][-2], us[1][-2] = left, right
            f = lambda w: jd.node_residual(us, w)
        else:
            disc = ed.EdgeDiscretization(H, spec, "external")
            j = n // 2 if row == "interior" else int(disc.pinned[0])
            u = np.full(n + 1, v0)
            u[j + 1] = right
            if j:
                u[j - 1] = left
            f = lambda w: disc.nodal_residual(u, j, w)
        calls = []

        def counted(w):
            calls.append(w)
            return f(w)

        v = ed._solve_increasing(counted, v0, tol)
        assert len(calls) < _NODAL_CAP
        fv = f(v)
        assert type(fv) is float
        # |f| <= tol, or the root within the final bracket's width of v
        w = 1e-14 * (1.0 + abs(v))
        assert abs(fv) <= tol or f(v - w) <= 0.0 <= f(v + w)
        r = _bisection_root(f, v0)
        assert abs(v - r) <= tol + 1e-13 * (1.0 + abs(r))

    @pytest.mark.parametrize("H", [
        hm.make_builtin("double_well", b=-2.0, c=0.0),
        hm.make_builtin("abs_shift", b=0.3, c=1.0),
        hm.make_builtin("expression", src="(p-0.8*sin(3*x))^2-1"),
    ], ids=["double_well", "abs_shift", "x-dependent"])
    def test_candidates_match_clip_stack(self, H):
        # the broadcast construction equals the per-slope clip + stack bit
        # for bit, for scalars, 1-D arrays and the Neumann row's mixed
        # (float, float) call
        disc = ed.EdgeDiscretization(H, ed.EdgeSpec(1.0, 64), "external")
        rng = np.random.default_rng(3)
        P = H.coercivity_bound
        pm, pp = rng.uniform(-2 * P, 2 * P, (2, 50))
        pm[:5] = pp[:5]
        for a, b in ((pm, pp), (float(pm[7]), float(pp[7])), (pm[0], pp[0]),
                     (0.0, float(pp[9]))):
            got = disc.godunov_candidates(a, b)
            ref = _clip_stack_candidates(disc, a, b)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        x = disc.x[1:51]
        vals = H(_clip_stack_candidates(disc, pm, pp), x)
        assert disc.godunov_flux(pm, pp, x).tobytes() == np.where(
            pm <= pp, vals.min(0), vals.max(0)).tobytes()
        pc = np.clip(np.diff(rng.uniform(0, 1, 65)) / disc.h,
                     -disc.theta_tab.span, disc.theta_tab.span)
        g = disc.godunov_flux(0.0, float(pc[0]), disc.x[0])
        ref = H(_clip_stack_candidates(disc, 0.0, float(pc[0])), disc.x[0])
        assert g == (ref.min() if pc[0] >= 0.0 else ref.max())

    def test_scalar_calls_return_float(self):
        H = hm.make_builtin("double_well", b=-2.0, c=0.0)
        spec = ed.EdgeSpec(1.0, 16, far_bc=ed.Neumann(0.3))
        disc = ed.EdgeDiscretization(H, spec, "external")
        u = np.linspace(0.0, 1.0, 17)
        assert type(disc.godunov_flux(-0.5, 0.2, 0.0)) is float
        trial = np.array([0.1, 0.4, 2.0])
        for j in (0, 5):
            assert type(disc.nodal_residual(u, j, 0.4)) is float
            # an array of trial values gives each one's scalar residual
            assert disc.nodal_residual(u, j, trial).tolist() == \
                [disc.nodal_residual(u, j, v) for v in trial]
        jd = jn.JunctionDiscretization(jn.JunctionProblem(
            [spec, spec], [H, hm.make_builtin("abs_shift", c=1.0)]))
        us = [u, u]
        assert type(jd.node_residual(us, 1.0)) is float
        assert jd.node_residual(us, trial).tolist() == \
            [jd.node_residual(us, v) for v in trial]
