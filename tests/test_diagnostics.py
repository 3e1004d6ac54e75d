"""Diagnostics tests: weight, energies, decay fits, inequality tables, residuals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

from memwave import spectral as spectral_mod
from memwave.cli import CUI_TRIPLES
from memwave.criticality import blow_up_scaling_exponents
from memwave.diagnostics import (
    TestFunctionParams,
    cui_bound_check,
    cutoff_profile,
    cutoff_profile_d1,
    energy_W,
    energy_weight_exponent,
    exterior_energy,
    fit_decay,
    fit_decay_samples,
    gagliardo_ratio,
    psi,
    psi_lower_bound,
    psi_radial,
    singular_convolution_case,
    WeakPairing,
    _radial_laplacian_of_power,
    time_cutoff_profiles,
    weak_residual,
)
from memwave.frac_ops import FracOrder, TimeGrid, TimeSeries, gamma_ratio, trapezoid_weights
from memwave.spectral import FieldState, SpatialGrid, linear_evolve
from memwave.stepper import ScenarioConfig, make_initial_data, run


# ---------------------------------------------------------------------------
# weight function
# ---------------------------------------------------------------------------

def test_psi_zero_at_origin():
    for t in (0.0, 1.0, 10.0):
        assert psi(np.zeros(3), t, 2.0) == 0.0


def test_psi_rejects_points_outside_cone():
    with pytest.raises(ValueError):
        psi(np.array([3.0]), 1.0, 2.0)
    with pytest.raises(ValueError):
        psi_radial(5.0, 1.0, 2.0)


def test_psi_lower_bound_on_dense_sample():
    K = 2.0
    rng = np.random.default_rng(17)
    for t in (0.0, 0.5, 3.0, 50.0):
        r = rng.uniform(0.0, (t + K) * 0.999999, 2000)
        vals = psi_radial(r, t, K)
        assert np.all(vals >= psi_lower_bound(r, t, K) - 1e-14)
        assert np.all(vals >= 0.0)


def test_psi_decreasing_in_time():
    K, r = 2.0, 1.5
    times = np.linspace(0.0, 10.0, 50)
    vals = [psi_radial(r, t, K) for t in times]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_psi_exceeds_half_K_near_cone():
    # documents why only 0 <= psi is asserted: near the light cone the
    # weight approaches (t+K)/2, which exceeds K/2 for t > 0
    K, t = 2.0, 5.0
    near_cone = (t + K) * (1.0 - 1e-9)
    assert psi_radial(near_cone, t, K) > K / 2.0


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_energy_weight_exponent_values():
    assert energy_weight_exponent(1, 0.9) == pytest.approx(0.65)
    assert energy_weight_exponent(2, 0.9) == pytest.approx(0.4)
    assert energy_weight_exponent(3, 0.8) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        energy_weight_exponent(4, 0.9)


def test_energy_W_zero_state():
    grid = SpatialGrid(1, 8.0, 64)
    state = FieldState(grid, np.zeros(grid.shape), np.zeros(grid.shape), 3.0)
    assert energy_W(state, 1, 0.9) == 0.0


def test_energy_W_scales_with_weight():
    grid = SpatialGrid(1, 8.0, 64)
    x = grid.axis_coords
    prof = np.exp(-(x**2))
    s0 = FieldState(grid, prof, prof, 0.0)
    s3 = FieldState(grid, prof, prof, 3.0)
    assert energy_W(s3, 1, 0.9) == pytest.approx(4.0**0.65 * energy_W(s0, 1, 0.9))


def test_exterior_energy_full_domain_at_time_zero():
    grid = SpatialGrid(1, 8.0, 128)
    x = grid.axis_coords
    prof = np.exp(-(x**2))
    state = FieldState(grid, prof, prof, 0.0)
    out = exterior_energy(state, 0.1)
    assert not out.region_empty
    assert out.value > 0.0


def test_exterior_energy_empty_region_flag():
    grid = SpatialGrid(1, 2.0, 16)
    state = FieldState(grid, np.ones(grid.shape), np.ones(grid.shape), 100.0)
    out = exterior_energy(state, 0.5)  # radius 100^1 = 100 >> box
    assert out.region_empty
    assert out.value == 0.0


def test_exterior_energy_ratio_decreases_for_linear_flow():
    grid = SpatialGrid(1, 64.0, 1024)
    x = grid.axis_coords
    w = 4.0 / 7.0
    prof = np.exp(-(x**2) / (2 * w * w))
    state = FieldState(grid, np.zeros(grid.shape), prof, 0.0)
    ratios = []
    values = []
    for t in (5.0, 10.0, 20.0, 40.0):
        evolved = linear_evolve(state, t)
        ext = exterior_energy(evolved, 0.1)
        assert not ext.region_empty
        ratios.append(ext.value / evolved.energy_l2())
        values.append(ext.value)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert values[-1] < values[0]


def _direct_exterior_energy(state, delta, spectrum=None):
    """The exterior energy summed over the exterior cells alone, as
    exterior_energy does on grids that transform by FFT: the oracle of the
    subtraction."""
    grid = state.grid
    radius = state.time ** (0.5 + delta) if state.time > 0.0 else 0.0
    mask = grid.radius > radius
    if not mask.any():
        return 0.0, True
    density = grid.gradient_squared(state.u, spectrum)
    density += np.square(state.v)
    return math.sqrt(grid.cell_sum(density, where=mask)), False


def _corner_weighted_state(grid, t):
    """An even state with most of its energy at the box's far corner, so
    the exterior outweighs the interior out to radii past L."""
    L = grid.half_length
    x = np.meshgrid(*[grid.axis_coords] * grid.dim, indexing="ij", sparse=True)
    corner = np.exp(-sum((L - a) ** 2 for a in x) / (L / 4.0) ** 2)
    core = np.exp(-sum(a**2 for a in x) / 4.0)
    return FieldState(grid, 0.6 * core + corner, 0.3 * core + 0.5 * corner, t)


@pytest.mark.parametrize("dim,points", [(2, 64), (3, 32)])
def test_exterior_energy_by_subtraction_matches_the_direct_sum(dim, points, monkeypatch):
    # delta = 1/2 makes the radius t itself: on the spheres k dx through
    # grid points, between them, at L (the corner box spans whole axes) and
    # past it
    grid = SpatialGrid(dim, 8.0, points, even=True)
    assert grid.transform_matrix_bytes > 0
    L, dx = grid.half_length, grid.dx
    radii = [0.0, dx, 2 * dx, 2.5 * dx, 5 * dx, 5.5 * dx, L - dx, L, 1.1 * L]
    cases = []
    for t in radii:
        state = _corner_weighted_state(grid, t)
        cases.append((state, _direct_exterior_energy(state, 0.5)))

    def refuse(self, field, spectrum=None):
        raise AssertionError("the exterior energy took the direct sum")

    monkeypatch.setattr(SpatialGrid, "gradient_squared", refuse)
    for state, (want, empty) in cases:
        got = exterior_energy(state, 0.5)
        assert not empty and not got.region_empty
        assert abs(got.value - want) <= 1e-13 * want, state.time
        # the spectrum in hand gives the same value
        spectrum = grid.to_spectrum(state.u)
        assert exterior_energy(state, 0.5, spectrum).value == got.value


@pytest.mark.parametrize("dim,points", [(2, 64), (3, 32)])
def test_exterior_energy_keeps_the_direct_sum_when_the_interior_dominates(dim, points):
    # a profile concentrated at the origin: the interior holds more than
    # half the energy, so the value is the direct sum's, bit for bit
    grid = SpatialGrid(dim, 8.0, points, even=True)
    profile = np.exp(-grid.radius**2)
    for t in (2.0, 4.0):
        state = FieldState(grid, profile, profile, t)
        want, _ = _direct_exterior_energy(state, 0.1)
        assert 0.0 < want < 0.5 * state.energy_l2()
        assert exterior_energy(state, 0.1).value == want


def test_exterior_energy_on_fft_grids_is_the_direct_sum(monkeypatch):
    full = SpatialGrid(2, 8.0, 64)
    monkeypatch.setattr(spectral_mod, "_DENSE_AXIS", 0)
    even = SpatialGrid(2, 8.0, 64, even=True)
    assert full.transform_matrix_bytes == even.transform_matrix_bytes == 0
    for grid in (full, even):
        for t in (0.0, 0.2, 1.0, 3.0):
            state = _corner_weighted_state(grid, t)
            want, empty = _direct_exterior_energy(state, 0.5)
            got = exterior_energy(state, 0.5)
            assert (got.value, got.region_empty) == (want, empty)


@pytest.mark.parametrize("even", [True, False])
def test_exterior_energy_region_empty_at_the_largest_radius(even):
    # delta = 1/2 makes the radius t: the point at the largest radius lies
    # outside only for a smaller one
    grid = SpatialGrid(2, 8.0, 32, even=even)
    assert grid.max_radius == float(grid.radius.max())
    below = np.nextafter(grid.max_radius, 0.0)
    for t, empty in ((grid.max_radius, True), (2 * grid.max_radius, True), (below, False)):
        state = _corner_weighted_state(grid, t)
        want, want_empty = _direct_exterior_energy(state, 0.5)
        got = exterior_energy(state, 0.5)
        assert got.region_empty == want_empty == empty
        assert (got.value == 0.0) == empty
        assert abs(got.value - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_decay_exact_power_law():
    grid = TimeGrid(0.5, 400)
    series = TimeSeries(grid, (1.0 + grid.times) ** -0.75)
    fit = fit_decay(series, (20.0, 200.0))
    assert fit.exponent == pytest.approx(-0.75, abs=0.01)
    assert fit.r_squared >= 0.999


def test_fit_decay_constant():
    grid = TimeGrid(0.5, 400)
    series = TimeSeries(grid, np.full(grid.n_nodes, 2.5))
    fit = fit_decay(series, (20.0, 200.0))
    assert fit.exponent == pytest.approx(0.0, abs=0.01)


def test_fit_decay_rejects_bad_windows():
    grid = TimeGrid(0.5, 400)
    series = TimeSeries(grid, np.ones(grid.n_nodes))
    with pytest.raises(ValueError):
        fit_decay(series, (200.0, 20.0))
    with pytest.raises(ValueError):
        fit_decay(series, (199.0, 200.5))  # fewer than 10 samples
    values = np.ones(grid.n_nodes)
    values[80] = -1.0
    bad = TimeSeries(grid, values)
    with pytest.raises(ValueError):
        fit_decay(bad, (20.0, 200.0))


def test_fit_decay_noisy_power_law_r_squared():
    rng = np.random.default_rng(4)
    times = np.linspace(1.0, 100.0, 300)
    values = (1 + times) ** -1.3 * np.exp(rng.normal(0.0, 0.01, times.size))
    fit = fit_decay_samples(times, values, (1.0, 100.0))
    assert fit.exponent == pytest.approx(-1.3, abs=0.05)
    assert fit.r_squared > 0.99


# ---------------------------------------------------------------------------
# singular convolution bound
# ---------------------------------------------------------------------------

def test_case_selection_matches_examples():
    assert singular_convolution_case(0.5, 1.0, 2.0) == "super"
    assert singular_convolution_case(0.5, 0.5, 1.0) == "log"
    assert singular_convolution_case(0.2, 0.1, 0.3) == "sub"


def _jacobi_oracle(theta, a, b, t, nodes=120):
    """Gauss-Jacobi quadrature with weight (1-x)^-theta: an independent route."""
    x, w = roots_jacobi(nodes, -theta, 0.0)
    tau = t * (x + 1.0) / 2.0
    vals = (1.0 + t - tau) ** (-a) * (1.0 + tau) ** (-b)
    return (t / 2.0) ** (1.0 - theta) * np.dot(w, vals)


@pytest.mark.parametrize(
    "theta,a,b,t",
    [(0.5, 1.0, 2.0, 3.7), (0.3, 0.7, 0.5, 12.0), (0.7, 0.8, 1.2, 1.0)],
)
def test_cui_quadrature_against_jacobi_oracle(theta, a, b, t):
    report = cui_bound_check(theta, a, b, [t])
    assert report.lhs[0] == pytest.approx(_jacobi_oracle(theta, a, b, t), rel=1e-8)


def test_cui_case_reports():
    ts = np.geomspace(1.0, 1e4, 40)
    # super: bound (1+t)^-min(a+theta, b) = (1+t)^-1.5
    rep = cui_bound_check(0.5, 1.0, 2.0, ts)
    assert rep.case == "super"
    assert math.isfinite(rep.sup_ratio)
    np.testing.assert_allclose(rep.bound, (1 + ts) ** -1.5)
    # log: bound picks up ln(2+t)
    rep = cui_bound_check(0.5, 0.5, 1.0, ts)
    assert rep.case == "log"
    np.testing.assert_allclose(rep.bound, (1 + ts) ** -1.0 * np.log(2 + ts))
    # sub: growing envelope (1+t)^(1-a-theta-b)
    rep = cui_bound_check(0.2, 0.1, 0.3, ts)
    assert rep.case == "sub"
    np.testing.assert_allclose(rep.bound, (1 + ts) ** 0.4)


def test_cui_ratio_stability_by_case():
    ts = np.geomspace(1.0, 1e4, 40)
    sup = cui_bound_check(0.5, 1.0, 2.0, ts)
    assert sup.last_decade_slope <= 0.01
    tail = sup.ratios[ts >= 1e3]
    assert np.all(np.diff(tail) <= 1e-9)  # strictly non-increasing here
    sub = cui_bound_check(0.25, 0.2, 0.3, ts)
    # converges to its limit from below: tiny positive slope, bounded ratios
    assert 0.0 <= sub.last_decade_slope <= 0.01
    assert math.isfinite(sub.sup_ratio)
    # the increments shrink: the ratio is converging, not drifting upward
    incs = np.diff(sub.ratios[ts >= 1e3])
    assert np.all(np.diff(incs) <= 1e-9)


def test_cui_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        cui_bound_check(1.0, 0.5, 0.5, [1.0])
    with pytest.raises(ValueError):
        cui_bound_check(0.5, -0.1, 0.5, [1.0])
    with pytest.raises(ValueError):
        cui_bound_check(0.5, 0.5, 0.5, [0.0])


def test_cui_theta_zero_plain_kernel():
    rep = cui_bound_check(0.0, 0.6, 0.7, [2.0])
    direct, _ = quad(lambda tau: (3.0 - tau) ** -0.6 * (1.0 + tau) ** -0.7, 0.0, 2.0)
    assert rep.lhs[0] == pytest.approx(direct, rel=1e-9)


def _weighted_quad_oracle(theta, a, b, t):
    """scipy's QAWS: (t - tau)^-theta is quad's algebraic weight, not part of
    the integrand, so the endpoint singularity is integrated exactly."""
    value, _ = quad(
        lambda tau: (1.0 + t - tau) ** (-a) * (1.0 + tau) ** (-b),
        0.0,
        t,
        weight="alg",
        wvar=(0.0, -theta),
        epsabs=0.0,
        epsrel=1e-12,
        limit=1000,
    )
    return value


@pytest.mark.parametrize(
    "theta,a,b,ts",
    [(theta, a, b, np.geomspace(1.0, 1e4, 40)) for _, theta, a, b in CUI_TRIPLES]
    + [(0.0, 0.6, 0.7, [2.0, 1e2, 1e4])],
    ids=[label for label, *_ in CUI_TRIPLES] + ["theta_0"],
)
def test_cui_quadrature_against_weighted_quad(theta, a, b, ts):
    lhs = cui_bound_check(theta, a, b, ts).lhs
    want = [_weighted_quad_oracle(theta, a, b, t) for t in ts]
    np.testing.assert_allclose(lhs, want, rtol=1e-11, atol=0.0)


# ---------------------------------------------------------------------------
# weighted interpolation ratio
# ---------------------------------------------------------------------------

def _bump_on(grid, K):
    x = grid.radius
    w = K / 7.0
    s = np.clip((x - 0.8 * K) / (0.15 * K), 0.0, 1.0)
    roll = 1.0 - (10 * s**3 - 15 * s**4 + 6 * s**5)
    return np.exp(-(x**2) / (2 * w * w)) * roll


def test_gagliardo_rejects_zero_field():
    grid = SpatialGrid(1, 16.0, 128)
    with pytest.raises(ValueError):
        gagliardo_ratio(np.zeros(grid.shape), grid, 1.0, 4.0, 0.5, 2.0)


def test_gagliardo_rejects_bad_interpolation_index():
    grid = SpatialGrid(1, 16.0, 128)
    u = _bump_on(grid, 2.0)
    with pytest.raises(ValueError):
        gagliardo_ratio(u, grid, 1.0, 1.5, 0.5, 2.0)  # theta(q) < 0
    with pytest.raises(ValueError):
        gagliardo_ratio(u, grid, 1.0, 4.0, 1.5, 2.0)  # sigma > 1


def _translated_bump(grid, K, center):
    """Bump centered at |x| = center with support inside B(center + K)."""
    r = np.abs(grid.axis_coords - center)
    w = K / 7.0
    s = np.clip((r - 0.8 * K) / (0.15 * K), 0.0, 1.0)
    roll = 1.0 - (10 * s**3 - 15 * s**4 + 6 * s**5)
    return np.exp(-(r**2) / (2 * w * w)) * roll


def test_gagliardo_ratio_bounded_across_translates():
    # bump riding outward with the cone: the exponential weight is large on
    # its support, which is the regime the inequality has to balance
    grid = SpatialGrid(1, 128.0, 4096)
    K = 4.0
    ratios = []
    for t in (1.0, 10.0, 100.0):
        u = _translated_bump(grid, K, center=t)
        ratios.append(gagliardo_ratio(u, grid, t, 4.0, 0.5, K))
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)


def test_gagliardo_q2_reduces_to_weighted_gradient_form():
    grid = SpatialGrid(1, 32.0, 512)
    K, t = 2.0, 1.5
    u = _bump_on(grid, K)
    ratio = gagliardo_ratio(u, grid, t, 2.0, 1.0, K)
    inside = grid.radius < (t + K) * (1 - 1e-12)
    w = np.zeros(grid.shape)
    w[inside] = psi_radial(grid.radius[inside], t, K)
    dV = grid.cell_volume
    num = math.sqrt(float(np.sum((np.exp(w) * u) ** 2) * dV))
    gx = grid.gradient(u)[0]
    den = math.sqrt(1 + t) * math.sqrt(float(np.sum((np.exp(w) * gx) ** 2) * dV))
    assert ratio == pytest.approx(num / den, rel=1e-10)


# ---------------------------------------------------------------------------
# test-function profiles
# ---------------------------------------------------------------------------

def test_profiles_vanish_at_horizon():
    params = TestFunctionParams(ell=8, eta=7.0, B=4.0, T=2.0, alpha=FracOrder(0.5))
    grid = TimeGrid(2.0 / 256, 256)
    prof = time_cutoff_profiles(params, grid)
    r0, r1 = prof.endpoint_residuals
    assert r0 <= 1e-10
    assert r1 <= 1e-10


def test_profiles_match_closed_form_at_zero():
    params = TestFunctionParams(ell=8, eta=7.0, B=4.0, T=2.0, alpha=FracOrder(0.5))
    grid = TimeGrid(2.0 / 256, 256)
    prof = time_cutoff_profiles(params, grid)
    expected = gamma_ratio(7.0, 0.5, 0) * 2.0**-0.5
    assert prof.phi[0] == pytest.approx(expected, rel=1e-3)


def test_params_validation():
    with pytest.raises(ValueError):
        TestFunctionParams(ell=8, eta=3.0, B=4.0, T=2.0, alpha=FracOrder(0.5))
    params = TestFunctionParams(ell=4, eta=7.0, B=4.0, T=2.0, alpha=FracOrder(0.5))
    with pytest.raises(ValueError):
        params.validate_for_p(1.5)  # needs ell >= 2*3+1 = 7


def test_cutoff_satisfies_decay_of_derivative():
    # |cutoff'(r)| <= C/r holds with C = 2 sup|cutoff'| since support is [1,2]
    r = np.linspace(0.01, 3.0, 1000)
    d = np.abs(cutoff_profile_d1(r))
    c1 = 2.0 * d.max()
    assert np.all(d <= c1 / r + 1e-12)
    assert cutoff_profile(0.5) == 1.0
    assert cutoff_profile(2.5) == 0.0


# ---------------------------------------------------------------------------
# weak residual
# ---------------------------------------------------------------------------

WEAK_PARAMS = TestFunctionParams(ell=8, eta=7.0, B=6.0, T=4.0, alpha=FracOrder(0.1))


def _mild_history(points, n_steps, t_end=4.0, amplitude=1e-2, params=WEAK_PARAMS):
    grid = SpatialGrid(1, 16.0, points)
    config = ScenarioConfig(
        grid=grid,
        gamma=0.9,
        p=4.5,
        support_radius=2.0,
        amplitude=amplitude,
        dt=t_end / n_steps,
        t_end=t_end,
    )
    pairing = WeakPairing(params, grid)
    return config, run(config, observers=(pairing,)), pairing


def test_weak_residual_zero_solution():
    config, history, pairing = _mild_history(128, 64, amplitude=0.0)
    assert weak_residual(history, pairing, config.p, config.gamma) == 0.0


def test_weak_residual_decreases_under_refinement():
    residuals = []
    for points, n_steps in ((128, 64), (256, 128)):
        config, history, pairing = _mild_history(points, n_steps)
        residuals.append(weak_residual(history, pairing, config.p, config.gamma))
    assert residuals[0] / residuals[1] >= 1.5


def _weak_residual_stacked(history, states, forcing, params):
    """weak_residual as computed before the pairing observer: every node's u
    and forcing stacked after the run, then reduced over space."""
    config = history.config
    dt = config.dt
    n_nodes = int(round(params.T / dt)) + 1
    tgrid = TimeGrid(dt, n_nodes - 1)
    profiles = time_cutoff_profiles(params, tgrid)
    grid = config.grid
    dV = grid.cell_volume
    space_cut = cutoff_profile(grid.radius / params.B) ** params.ell
    lap_cut = _radial_laplacian_of_power(grid, params.B, params.ell)
    U = np.stack([states[m].u for m in range(n_nodes)])
    if forcing[0] is not None:
        Fmem = np.stack(forcing[:n_nodes])
    else:
        Fmem = np.zeros_like(U)
    axes = tuple(range(1, U.ndim))
    u_cut = np.sum(U * space_cut, axis=axes) * dV
    f_cut = np.sum(Fmem * space_cut, axis=axes) * dV
    u_lap = np.sum(U * lap_cut, axis=axes) * dV
    w = trapezoid_weights(tgrid)
    u0, u1 = states[0].u, states[0].v
    lhs = (
        float(np.dot(w, f_cut * profiles.phi))
        + float(np.sum(u1 * space_cut)) * dV * profiles.phi[0]
        + float(np.sum(u0 * space_cut)) * dV * (profiles.phi[0] - profiles.dphi[0])
    )
    rhs = (
        float(np.dot(w, u_cut * profiles.d2phi))
        - float(np.dot(w, u_cut * profiles.dphi))
        - float(np.dot(w, u_lap * profiles.phi))
    )
    return abs(lhs - rhs)


class KeepNodes:
    """Test observer: every node's state and a copy of its forcing, which
    lives in a buffer that the next step rewrites."""

    def __init__(self):
        self.states, self.forcing = [], []

    def __call__(self, node, state, uh, g, forcing):
        self.states.append(state)
        self.forcing.append(None if forcing is None else forcing.copy())


@pytest.mark.parametrize(
    "dim,points,nonlinear", [(1, 128, True), (1, 128, False), (2, 64, True)]
)
def test_weak_pairing_matches_stacked_residual(dim, points, nonlinear):
    grid = SpatialGrid(dim, 16.0, points)
    config = ScenarioConfig(
        grid=grid, gamma=0.9, p=4.5, support_radius=2.0, amplitude=1e-2,
        dt=4.0 / 32, t_end=4.0, nonlinearity_enabled=nonlinear,
    )
    pairing = WeakPairing(WEAK_PARAMS, grid)
    keep = KeepNodes()
    history = run(config, observers=(pairing, keep))
    got = weak_residual(history, pairing, config.p, config.gamma)
    want = _weak_residual_stacked(history, keep.states, keep.forcing, WEAK_PARAMS)
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-12)


def test_weak_residual_rejects_blown_up_history():
    grid = SpatialGrid(1, 32.0, 256)
    config = ScenarioConfig(
        grid=grid,
        gamma=0.9,
        p=2.0,
        support_radius=4.0,
        amplitude=4.0,
        dt=0.125,
        t_end=25.0,
    )
    params = TestFunctionParams(ell=8, eta=7.0, B=6.0, T=25.0, alpha=FracOrder(0.1))
    pairing = WeakPairing(params, grid)
    history = run(config, observers=(pairing,))
    with pytest.raises(ValueError):
        weak_residual(history, pairing, config.p, config.gamma)


def test_weak_residual_requires_matching_gamma():
    config, history, pairing = _mild_history(128, 64)
    with pytest.raises(ValueError):
        weak_residual(history, pairing, config.p, 0.5)


def test_small_data_energy_decay_consistent_with_weighted_bound():
    # bounded (1+t)^j ||Du|| with j = 0.65 at (n, gamma) = (1, 0.9) demands a
    # fitted decay slope of at most -j; the measured slope is ~-0.81
    config = ScenarioConfig(
        grid=SpatialGrid(1, 50.0, 512),
        gamma=0.9,
        p=4.5,
        support_radius=4.0,
        amplitude=1e-2,
        dt=0.1,
        t_end=40.0,
    )
    history = run(config)
    fit = fit_decay_samples(
        history.times, history.record_array("l2_du"), (12.6, 40.0)
    )
    j = energy_weight_exponent(1, config.gamma)
    assert fit.exponent <= -j + 0.05
    assert fit.r_squared >= 0.99


def test_scaling_envelope_matches_blow_up_exponents():
    # the rescaled bound envelope is an exact power law in the horizon; its
    # log-log slope between two horizons equals the scaling exponents
    gamma, p, n = 0.9, 2.0, 1
    alpha = 1.0 - gamma
    p_prime = p / (p - 1.0)
    eta, ell = 7.0, 8
    e1, e2 = blow_up_scaling_exponents(n, gamma, p)

    space_factor_unit = quad(lambda s: cutoff_profile(abs(s)) ** ell, -2.0, 2.0)[0]

    def envelope_term(T, k):
        Rk = gamma_ratio(eta, alpha, k)
        time_part, _ = quad(
            lambda t: (1.0 - t / T) ** (-eta / (p - 1.0))
            * (Rk * T**-eta * (T - t) ** (eta - alpha - k)) ** p_prime,
            0.0,
            T * (1.0 - 1e-12),
        )
        return time_part * space_factor_unit * math.sqrt(T)  # B = sqrt(T), n = 1

    for k, expected in ((2, e1), (1, e2)):
        slope = math.log(envelope_term(256.0, k) / envelope_term(64.0, k)) / math.log(4.0)
        assert slope == pytest.approx(float(expected), abs=1e-6)
