"""Fractional-operator tests against closed forms and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as Gamma

from memwave.frac_ops import (
    CutoffProfile,
    FracOrder,
    TimeGrid,
    TimeSeries,
    adjointness_sides,
    cutoff_deriv_closed_form,
    exponential_hat_moments,
    exponential_sum,
    gamma_ratio,
    grid_derivative_n,
    integration_by_parts_residual,
    inversion_residual,
    product_weights,
    rl_deriv_left,
    rl_deriv_right,
    rl_integral,
)


def make_grid(n_steps, horizon=1.0):
    return TimeGrid(horizon / n_steps, n_steps)


def frac_integral_quad(fn, t, alpha):
    """Adaptive-quadrature oracle for 1/Gamma(a) int_0^t (t-s)^(a-1) fn(s) ds."""
    if t == 0.0:
        return 0.0
    val, _ = quad(fn, 0.0, t, weight="alg", wvar=(0.0, alpha - 1.0), epsabs=1e-12)
    return val / Gamma(alpha)


def right_frac_integral_quad(fn, t, T, beta):
    val, _ = quad(fn, t, T, weight="alg", wvar=(beta - 1.0, 0.0), epsabs=1e-12)
    return val / Gamma(beta)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
def test_frac_order_rejects_out_of_range(alpha):
    with pytest.raises(ValueError):
        FracOrder(alpha)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)
    grid = TimeGrid(0.25, 4)
    assert grid.times[0] == 0.0
    assert np.all(np.diff(grid.times) > 0)
    assert grid.horizon == 1.0


def test_time_series_length_and_finiteness():
    grid = make_grid(8)
    with pytest.raises(ValueError):
        TimeSeries(grid, np.zeros(5))
    with pytest.raises(ValueError):
        TimeSeries(grid, np.full(9, np.nan))
    TimeSeries(grid, np.full(9, np.nan), non_finite_ok=True)


def test_cutoff_profile_validation():
    with pytest.raises(ValueError):
        CutoffProfile(3.0, 1.0)
    with pytest.raises(ValueError):
        CutoffProfile(7.0, 0.0)
    prof = CutoffProfile(7.0, 2.0)
    assert prof(0.0) == 1.0
    assert prof(2.0) == 0.0
    assert prof(5.0) == 0.0  # positive part


# ---------------------------------------------------------------------------
# rl_integral
# ---------------------------------------------------------------------------

def test_integral_of_zero_is_zero():
    grid = make_grid(64)
    out = rl_integral(TimeSeries(grid, np.zeros(grid.n_nodes)), FracOrder(0.37))
    assert np.all(out.values == 0.0)


def test_integral_power_rule_constant():
    # J^(1/2) of 1 at t=1 equals 2/sqrt(pi); cross-checked by the quadrature oracle
    grid = make_grid(512)
    out = rl_integral(TimeSeries(grid, np.ones(grid.n_nodes)), FracOrder(0.5))
    exact = 2.0 / math.sqrt(math.pi)
    assert exact == pytest.approx(1.1283791670955126, rel=1e-12)
    assert out.values[-1] == pytest.approx(exact, rel=1e-10)
    oracle = frac_integral_quad(lambda s: 1.0, 1.0, 0.5)
    assert out.values[-1] == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.5, 2.0), (0.75, 1.5)])
def test_integral_power_rule_general(alpha, beta):
    # J^a t^b = Gamma(b+1)/Gamma(a+b+1) t^(a+b); product integration is
    # second order, so 1/512 grids resolve these to ~1e-5
    grid = make_grid(512)
    g = TimeSeries(grid, grid.times**beta)
    out = rl_integral(g, FracOrder(alpha))
    exact = Gamma(beta + 1.0) / Gamma(alpha + beta + 1.0) * grid.times ** (alpha + beta)
    err = np.abs(out.values - exact).max()
    assert err < 2e-5
    node = int(round(0.7 / grid.dt))
    oracle = frac_integral_quad(lambda s: s**beta, grid.times[node], alpha)
    assert out.values[node] == pytest.approx(oracle, abs=2e-5)


def test_integral_alpha_near_one_reduces_to_plain_integral():
    grid = make_grid(512)
    g = TimeSeries(grid, grid.times.copy())
    out = rl_integral(g, FracOrder(1.0 - 1e-6))
    assert out.values[-1] == pytest.approx(0.5, abs=1e-3)


def test_integral_linearity_and_positivity():
    rng = np.random.default_rng(7)
    grid = make_grid(128)
    g1 = rng.standard_normal(grid.n_nodes)
    g2 = rng.standard_normal(grid.n_nodes)
    a, b = -1.7, 2.3
    order = FracOrder(0.42)
    combined = rl_integral(TimeSeries(grid, a * g1 + b * g2), order).values
    separate = a * rl_integral(TimeSeries(grid, g1), order).values + b * rl_integral(
        TimeSeries(grid, g2), order
    ).values
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-12)

    nonneg = rl_integral(TimeSeries(grid, np.abs(g1)), order).values
    assert np.all(nonneg >= 0.0)


def test_integral_semigroup_refines():
    # J^a J^b g ~= J^(a+b) g with an error that shrinks under refinement
    errs = []
    for n_steps in (256, 512):
        grid = make_grid(n_steps)
        g = TimeSeries(grid, np.sin(grid.times))
        once = rl_integral(rl_integral(g, FracOrder(0.3)), FracOrder(0.4)).values
        direct = rl_integral(g, FracOrder(0.7)).values
        errs.append(np.abs(once - direct).max())
    assert errs[0] < 1e-4
    assert errs[1] < errs[0]


def test_time_series_rejects_field_values():
    # one scalar per node: a field per node is not a series
    grid = make_grid(64)
    with pytest.raises(ValueError, match="1-D"):
        TimeSeries(grid, np.ones((grid.n_nodes, 5)))
    with pytest.raises(ValueError, match="1-D"):
        TimeSeries(grid, np.float64(1.0))


def test_non_finite_input_propagates_flagged():
    grid = make_grid(16)
    values = np.ones(grid.n_nodes)
    values[3] = np.inf
    out = rl_integral(TimeSeries(grid, values, non_finite_ok=True), FracOrder(0.5))
    assert out.non_finite_ok
    assert not np.isfinite(out.values).all()


# ---------------------------------------------------------------------------
# left derivative
# ---------------------------------------------------------------------------

def test_deriv_left_of_zero():
    grid = make_grid(32)
    out = rl_deriv_left(TimeSeries(grid, np.zeros(grid.n_nodes)), FracOrder(0.3))
    assert np.allclose(out.values, 0.0)


def test_deriv_left_of_constant_matches_closed_form():
    # D^a 1 = t^-a / Gamma(1-a); at alpha=0.3, t=1 this is
    # 1/Gamma(0.7) = 0.770383..., confirmed by the quadrature oracle
    grid = make_grid(512)
    out = rl_deriv_left(TimeSeries(grid, np.ones(grid.n_nodes)), FracOrder(0.3))
    exact = 1.0 / Gamma(0.7)
    assert exact == pytest.approx(0.770383, abs=2e-6)
    assert out.values[-1] == pytest.approx(exact, rel=1e-4)
    interior = int(round(0.5 / grid.dt))
    assert out.values[interior] == pytest.approx(0.5**-0.3 / Gamma(0.7), rel=1e-4)


def test_deriv_left_needs_three_nodes():
    grid = TimeGrid(0.5, 1)
    with pytest.raises(ValueError):
        rl_deriv_left(TimeSeries(grid, np.ones(2)), FracOrder(0.5))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_inversion_zero():
    grid = make_grid(32)
    assert inversion_residual(TimeSeries(grid, np.zeros(grid.n_nodes)), FracOrder(0.5)) == 0.0


def test_inversion_sine_accuracy_and_order():
    # frozen from a refinement study: residuals 8.05e-5 / 4.02e-5 / 2.01e-5,
    # i.e. clean first-order convergence, far below the 2% requirement
    residuals = []
    for n_steps in (512, 1024, 2048):
        grid = make_grid(n_steps)
        g = TimeSeries(grid, np.sin(grid.times))
        residuals.append(inversion_residual(g, FracOrder(0.5)))
    sup_g = math.sin(1.0)
    assert residuals[0] / sup_g < 0.02
    assert residuals[0] / sup_g == pytest.approx(8.05e-5, rel=0.05)
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8


def test_inversion_recovers_sine_pointwise():
    grid = make_grid(512)
    g = TimeSeries(grid, np.sin(grid.times))
    order = FracOrder(0.5)
    recovered = rl_deriv_left(rl_integral(g, order), order).values
    np.testing.assert_allclose(recovered[1:-1], g.values[1:-1], atol=1e-4)


def test_inversion_converges_for_lipschitz_kink():
    # a tent profile has a genuine kink; the sup residual still converges at
    # first order (the identity only needs absolute continuity)
    residuals = []
    for n_steps in (256, 512, 1024):
        grid = make_grid(n_steps)
        tent = TimeSeries(grid, np.minimum(grid.times, 1.0 - grid.times))
        residuals.append(inversion_residual(tent, FracOrder(0.5)))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert residuals[-1] < 6e-4
    assert min(orders) >= 0.9


def test_inversion_with_nonzero_initial_value_converges_in_rms():
    # g(0) != 0 excites the t^alpha layer at the origin: the first few nodes
    # keep an O(1) pointwise error (the identity holds only a.e.), while the
    # root-mean-square residual still vanishes under refinement
    order = FracOrder(0.5)
    rms = []
    sup = []
    for n_steps in (512, 2048):
        grid = make_grid(n_steps)
        g = TimeSeries(grid, np.abs(grid.times - 0.5))
        rec = rl_deriv_left(rl_integral(g, order), order).values
        err = (rec - g.values)[1:-1]
        rms.append(float(np.sqrt(np.mean(err**2))))
        sup.append(float(np.abs(err).max()))
    assert rms[1] < 0.55 * rms[0]
    assert sup[1] == pytest.approx(sup[0], rel=0.05)  # stalls near t = 0


# ---------------------------------------------------------------------------
# right derivative and closed form
# ---------------------------------------------------------------------------

def test_gamma_ratio_constant_confirmed_by_quadrature_oracle():
    # the closed-form constant Gamma(sigma+1)/Gamma(sigma-alpha+1) is
    # validated against adaptive quadrature plus a numerical derivative
    for sigma, alpha, t in ((7.0, 0.3, 0.3), (7.0, 0.3, 0.7), (5.0, 0.6, 0.5)):
        T = 1.0
        fn = lambda s: (1.0 - s / T) ** sigma
        h = 1e-5
        Ip = right_frac_integral_quad(fn, t + h, T, 1.0 - alpha)
        Im = right_frac_integral_quad(fn, t - h, T, 1.0 - alpha)
        oracle = -(Ip - Im) / (2.0 * h)
        closed = cutoff_deriv_closed_form(
            CutoffProfile(sigma, T), FracOrder(alpha), 0, t
        )
        assert closed == pytest.approx(oracle, rel=1e-7)


def test_cutoff_deriv_closed_form_values():
    prof = CutoffProfile(7.0, 1.0)
    order = FracOrder(0.3)
    # vanishing positive part at t = T
    assert cutoff_deriv_closed_form(prof, order, 0, 1.0) == 0.0
    # frozen Gamma-ratio value at t = 0, T = 1: Gamma(8)/Gamma(7.7)
    expected = Gamma(8.0) / Gamma(7.7)
    assert cutoff_deriv_closed_form(prof, order, 0, 0.0) == pytest.approx(expected)
    with pytest.raises(ValueError):
        cutoff_deriv_closed_form(prof, order, 0, 1.5)
    with pytest.raises(ValueError):
        cutoff_deriv_closed_form(prof, order, 0, -0.1)


def test_right_deriv_endpoint_values_scale_with_horizon():
    # (D^a w)(0) = C T^-a and (D^(1+a) w)(0) = C T^(-a-1); (D w)(T) = 0
    sigma, alpha, T = 7.0, 0.3, 2.0
    n_steps = 1024
    grid = TimeGrid(T / n_steps, n_steps)
    w1 = CutoffProfile(sigma, T).sample(grid)
    for k in (0, 1):
        approx = rl_deriv_right(w1, FracOrder(alpha), k)
        expected0 = gamma_ratio(sigma, alpha, k) * T ** (-alpha - k)
        assert approx.values[0] == pytest.approx(expected0, rel=1e-4)
        assert abs(approx.values[-1]) < 1e-10 * abs(expected0)


@pytest.mark.parametrize("sigma", [5.0, 9.0])
@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_right_deriv_matches_closed_form_spot(sigma, alpha, k):
    grid = make_grid(512)
    prof = CutoffProfile(sigma, 1.0)
    approx = rl_deriv_right(prof.sample(grid), FracOrder(alpha), k)
    exact = cutoff_deriv_closed_form(prof, FracOrder(alpha), k, grid.times)
    rel = np.abs(approx.values - exact).max() / np.abs(exact).max()
    assert rel < 0.01


def test_right_deriv_rejects_bad_k_and_short_grid():
    grid = make_grid(512)
    w1 = CutoffProfile(7.0, 1.0).sample(grid)
    with pytest.raises(ValueError):
        rl_deriv_right(w1, FracOrder(0.5), 3)
    short = TimeGrid(0.25, 4)
    with pytest.raises(ValueError):
        rl_deriv_right(CutoffProfile(7.0, 1.0).sample(short), FracOrder(0.5), 2)


# ---------------------------------------------------------------------------
# integration by parts
# ---------------------------------------------------------------------------

def test_adjointness_zero_case():
    grid = make_grid(64)
    f = TimeSeries(grid, np.zeros(grid.n_nodes))
    g = CutoffProfile(7.0, 1.0).sample(grid)
    assert integration_by_parts_residual(f, g, FracOrder(0.5)) == 0.0


def test_adjointness_linear_vs_cutoff():
    grid = make_grid(512)
    f = TimeSeries(grid, grid.times.copy())
    g = CutoffProfile(7.0, 1.0).sample(grid)
    order = FracOrder(0.5)
    lhs, rhs = adjointness_sides(f, g, order)
    residual = integration_by_parts_residual(f, g, order)
    assert residual <= 0.01 * max(abs(lhs), abs(rhs))


def test_adjointness_residual_halves_under_refinement():
    order = FracOrder(0.5)
    residuals = []
    for n_steps in (512, 1024):
        grid = make_grid(n_steps)
        f = TimeSeries(grid, grid.times.copy())
        g = CutoffProfile(7.0, 1.0).sample(grid)
        residuals.append(integration_by_parts_residual(f, g, order))
    assert residuals[1] <= 0.5 * residuals[0]


def test_adjointness_rejects_mismatched_grids():
    f = TimeSeries(make_grid(32), np.zeros(33))
    g = TimeSeries(make_grid(64), np.zeros(65))
    with pytest.raises(ValueError):
        integration_by_parts_residual(f, g, FracOrder(0.5))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_product_weights_are_nonnegative_and_sum_to_kernel_mass():
    alpha = 0.35
    first, conv = product_weights(alpha, 64)
    assert np.all(first >= 0.0)
    assert np.all(conv >= 0.0)
    # integrating g = 1 up to t_m must give exactly t_m^alpha / alpha
    m = 17
    total = first[m] + conv[1:m].sum() + conv[0]
    assert total == pytest.approx(m**alpha / alpha, rel=1e-12)


# ---------------------------------------------------------------------------
# sum-of-exponentials kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.001, 0.01, 0.1, 0.5, 0.9, 0.999])
# 9 is the shortest run that takes blocks (B + 1 steps); 52985 is where the
# error peaks (4.2e-10 at gamma = 0.999) over gamma in [0.001, 0.999] and
# horizon/dt in [9, 1e5]
@pytest.mark.parametrize("ratio", [9.0, 10.0, 1e3, 52985.0, 1e5])
def test_exponential_sum_self_check_holds_up_to_1e5_steps(gamma, ratio):
    horizon = 50.0
    dt = horizon / ratio
    rates, weights = exponential_sum(gamma, dt, horizon)
    assert len(rates) == len(weights)
    assert (rates > 0.0).all() and (weights > 0.0).all()
    # an independent, five times finer tau grid, the ends included
    tau = np.geomspace(dt, horizon, 5000)
    approx = np.exp(-np.outer(tau, rates)) @ weights
    assert np.max(np.abs(approx * tau**gamma - 1.0)) <= 1e-9


@pytest.mark.parametrize("gamma", [0.001, 0.01, 0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("ratio,most", [(200.0, 36), (3471.0, 45)])
def test_exponential_sum_term_count_stays_bounded(gamma, ratio, most):
    # the horizon/dt of the 3-D and sweep runs (200) and of the long 1-D run
    # (3471); the term count is the length of the memory modes
    horizon = 50.0
    dt = horizon / ratio
    assert len(exponential_sum(gamma, dt, horizon)[0]) <= most


@pytest.mark.parametrize(
    "gamma,ratio,terms",
    [(g, 200.0, 22 if g == 0.001 else 23) for g in (0.001, 0.01, 0.1, 0.5, 0.9, 0.999)]
    + [(g, 3471.0, 29 if g == 0.001 else 30) for g in (0.001, 0.01, 0.1, 0.5, 0.9, 0.999)],
)
def test_exponential_sum_term_count_at_the_benchmark_sizes(gamma, ratio, terms):
    # the Q that the memory sum's rows, its estimate and the docs quote: the
    # Gauss rule carries the slow terms in 6 exponentials at gamma = 0.001
    # and in 7 at the others
    horizon = 50.0
    assert len(exponential_sum(gamma, horizon / ratio, horizon)[0]) == terms


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("ratio", [200.0, 3471.0])
def test_gauss_rule_reproduces_the_moments_of_the_slow_terms(gamma, ratio):
    import memwave.frac_ops as frac_ops

    horizon = 50.0
    rates, weights = frac_ops._trapezoid_terms(gamma, horizon / ratio, horizon)
    slow = rates * horizon < frac_ops.SOE_SLOW
    s, w = rates[slow] * horizon, weights[slow]
    # every rule up to one past the 7 points the fit takes
    for m in range(1, 9):
        nodes, masses = frac_ops._gauss_rule(s, w, m)
        assert len(nodes) == len(masses) == m
        assert (nodes >= s.min()).all() and (nodes <= s.max()).all()
        assert (masses > 0.0).all()
        for j in range(2 * m):
            want = np.dot(w, s**j)
            assert abs(np.dot(masses, nodes**j) - want) <= 1e-12 * want, (m, j)


def test_exponential_sum_check_rejects_a_coarser_step(monkeypatch):
    import memwave.frac_ops as frac_ops

    monkeypatch.setattr(frac_ops, "SOE_STEP", 0.5)
    with pytest.raises(ValueError, match="exponentials misses"):
        exponential_sum(0.9, 0.25, 50.0)


def test_exponential_sum_raises_when_the_check_fails(monkeypatch):
    import memwave.frac_ops as frac_ops

    monkeypatch.setattr(frac_ops, "SOE_TOLERANCE", 1e-13)
    with pytest.raises(ValueError, match="exponentials misses"):
        exponential_sum(0.5, 0.01, 10.0)
    with pytest.raises(ValueError):
        exponential_sum(1.0, 0.01, 10.0)


@pytest.mark.parametrize("rate", [1e-9, 1e-3, 0.999, 1.0, 1.001, 7.0, 30.0, 500.0])
def test_exponential_hat_moments_match_quadrature(rate):
    dt, n = 0.1, 5
    T = n * dt
    moments = exponential_hat_moments(np.array([rate]), dt, n)[0]
    for j in range(n + 1):
        want = sum(
            quad(lambda s: math.exp(-rate * (T - s)) * max(0.0, 1.0 - abs(s / dt - j)),
                 a * dt, (a + 1) * dt, epsabs=0.0, epsrel=1e-13)[0]
            for a in (j - 1, j) if 0 <= a < n
        )
        assert moments[j] == pytest.approx(want, rel=1e-12)


def test_exponential_hat_moments_of_a_vanishing_rate_are_the_trapezoid_rule():
    moments = exponential_hat_moments(np.array([1e-300]), 0.25, 4)[0]
    np.testing.assert_allclose(moments, [0.125, 0.25, 0.25, 0.25, 0.125], rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_derivative_n_exact_on_polynomials(n):
    # the 3-point first-derivative scheme is exact through degree 2; the
    # width n+3 stencils for n >= 2 through degree n+2
    dt = 0.1
    t = dt * np.arange(12)
    degree = 2 if n == 1 else n + 2
    coeffs = [0.3, -1.2, 0.7, 0.25, -0.05, 0.01][: degree + 1]
    poly = np.polynomial.Polynomial(coeffs)
    vals = poly(t)
    expected = poly.deriv(n)(t)
    out = grid_derivative_n(vals, dt, n)
    np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)
