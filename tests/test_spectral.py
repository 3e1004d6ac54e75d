"""Symbol and propagator tests against closed forms and ODE oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from memwave.spectral import (
    FieldState,
    SpatialGrid,
    StepCoefficients,
    duhamel_step,
    k0_hat,
    k1_hat,
    linear_evolve,
)


@pytest.fixture(scope="module")
def grid1d():
    return SpatialGrid(1, 32.0, 256)


def bump_state(grid, width=1.0, center=0.0, velocity=True):
    x = grid.axis_coords
    profile = np.exp(-((x - center) ** 2) / (2.0 * width**2))
    u = profile if not velocity else np.zeros_like(profile)
    v = profile if velocity else np.zeros_like(profile)
    return FieldState(grid, u, v, 0.0)


# ---------------------------------------------------------------------------
# grids and states
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(4, 1.0, 16)
    with pytest.raises(ValueError):
        SpatialGrid(1, -1.0, 16)
    with pytest.raises(ValueError):
        SpatialGrid(1, 1.0, 15)  # odd


@pytest.mark.parametrize("half_length", [math.nan, math.inf])
def test_grid_rejects_a_non_finite_half_length(half_length):
    with pytest.raises(ValueError, match="half_length"):
        SpatialGrid(1, half_length, 64)


@pytest.mark.parametrize("points", [64.0, np.float64(64.0), "64"])
def test_grid_rejects_a_non_integer_points_per_dim(points):
    with pytest.raises(ValueError, match="points_per_dim"):
        SpatialGrid(1, 10.0, points)
    # numpy's integers are integers
    assert SpatialGrid(1, 10.0, np.int64(64)).shape == (64,)


@pytest.mark.parametrize("dim", [1.0, np.float64(2.0), True, np.True_, "1"])
def test_grid_rejects_a_non_integer_dim(dim):
    with pytest.raises(ValueError, match="dim"):
        SpatialGrid(dim, 8.0, 64)
    # numpy's integers are integers
    assert SpatialGrid(np.int64(2), 8.0, 64).shape == (64, 64)


def test_grid_frequency_set_is_symmetric(grid1d):
    full = 2.0 * np.pi * np.fft.fftfreq(grid1d.points_per_dim, d=grid1d.dx)
    nonzero = full[np.abs(full) > 0]
    # closed under negation up to the unpaired Nyquist mode
    nyquist = np.pi / grid1d.dx
    paired = nonzero[np.abs(np.abs(nonzero) - nyquist) > 1e-12]
    assert set(np.round(paired, 9)) == set(np.round(-paired, 9))


def test_grid_spacing_and_volume():
    grid = SpatialGrid(2, 4.0, 16)
    assert grid.dx == 0.5
    assert grid.cell_volume == 0.25
    assert grid.xi_squared.shape == (16, 9)


@pytest.mark.parametrize(
    "dim,points,even",
    [
        pytest.param(1, 64, False, id="1-64"),
        pytest.param(2, 16, False, id="2-16"),
        pytest.param(3, 8, False, id="3-8"),
        pytest.param(1, 64, True, id="1-64-even"),
        pytest.param(2, 16, True, id="2-16-even"),
        pytest.param(3, 8, True, id="3-8-even"),
    ],
)
def test_gradient_squared_is_the_sum_of_squared_components(dim, points, even):
    # one component at a time, from the spectrum in hand or not: bit for
    # bit the squares of gradient() summed
    grid = SpatialGrid(dim, 8.0, points, even=even)
    u = np.random.default_rng(dim).standard_normal(grid.shape)
    want = sum(c**2 for c in grid.gradient(u))
    for got in (grid.gradient_squared(u), grid.gradient_squared(u, grid.to_spectrum(u))):
        assert got.tobytes() == want.tobytes()
    # the symbols broadcast along their own axis only
    for axis, sym in enumerate(grid.grad_symbols):
        assert sym.shape == tuple(
            n if i == axis else 1 for i, n in enumerate(grid.spectrum_shape)
        )


@pytest.mark.parametrize("even", [True, False], ids=["even", "full"])
def test_grad_symbol_zeroes_only_the_nyquist_mode_on_a_long_axis(even):
    # 2^18 points: Nyquist's neighbours lie within a relative 1e-5 of it
    grid = SpatialGrid(1, 32768.0, 2**18, even=even)
    (xi,), (sym,) = grid.xi_axes, grid.grad_symbols
    zeroed = np.flatnonzero((sym == 0.0) & (xi != 0.0))
    assert zeroed.tolist() == [grid.points_per_dim // 2]


def test_field_state_validation(grid1d):
    good = np.zeros(grid1d.shape)
    with pytest.raises(ValueError):
        FieldState(grid1d, good[:10], good, 0.0)
    with pytest.raises(ValueError):
        FieldState(grid1d, good, good, -1.0)
    bad = good.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        FieldState(grid1d, bad, good, 0.0)


@pytest.mark.parametrize("time", [math.nan, math.inf, np.float64(np.nan)])
def test_field_state_rejects_a_non_finite_time(grid1d, time):
    good = np.zeros(grid1d.shape)
    with pytest.raises(ValueError, match="time"):
        FieldState(grid1d, good, good, time)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_symbols_at_time_zero():
    xi2 = np.array([0.0, 0.1, 0.25, 1.0, 50.0])
    assert np.allclose(k0_hat(0.0, xi2), 1.0)
    assert np.allclose(k1_hat(0.0, xi2), 0.0)


def test_symbols_reject_negative_time():
    with pytest.raises(ValueError):
        k0_hat(-0.1, np.array([1.0]))
    with pytest.raises(ValueError):
        k1_hat(-0.1, np.array([1.0]))


@pytest.mark.parametrize("t", [0.3, 1.0, 4.0, 25.0])
def test_zero_mode_closed_forms(t):
    # k0 = (1 + e^-t)/2 and k1 = 1 - e^-t at xi = 0
    assert k0_hat(t, np.array([0.0]))[0] == pytest.approx((1 + math.exp(-t)) / 2, rel=1e-14)
    assert k1_hat(t, np.array([0.0]))[0] == pytest.approx(1 - math.exp(-t), rel=1e-14)


@pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
def test_unit_frequency_closed_form(t):
    # |xi| = 1: a = sqrt(3)/2
    expected = math.exp(-t / 2) * math.cos(math.sqrt(3.0) * t / 2.0)
    assert k0_hat(t, np.array([1.0]))[0] == pytest.approx(expected, rel=1e-14)


def test_branch_circle_removable_limit():
    # |xi| = 1/2, t = 2: k1 = t e^(-t/2) = 2/e
    val = k1_hat(2.0, np.array([0.25]))[0]
    assert val == pytest.approx(2.0 / math.e, rel=1e-12)


def test_symbols_continuous_across_branch():
    # the true symbols vary like t^2 eps across the window, so the 1e-6
    # relative bound applies at moderate times; at larger t the measured
    # jump must still match the analytic variation (no branch glitch)
    eps = 1e-8
    xi2 = np.array([0.25 - eps, 0.25 + eps])
    for t in (0.5, 1.0, 5.0):
        k0 = k0_hat(t, xi2)
        k1 = k1_hat(t, xi2)
        assert abs(k0[1] - k0[0]) < 1e-6 * abs(k0[0])
        assert abs(k1[1] - k1[0]) < 1e-6 * abs(k1[0])
    t = 25.0
    k0 = k0_hat(t, xi2)
    analytic_variation = t * t * eps  # d k0 / d xi2 = -t^2/2 * k0 at the circle
    assert abs(k0[1] - k0[0]) == pytest.approx(analytic_variation * abs(k0[0]), rel=0.05)


def test_symbols_against_complex_arithmetic_oracle():
    # direct complex evaluation e^{-t/2} cos(t a), sin(t a)/a with
    # a = sqrt(xi^2 - 1/4 + 0j) is an independent route on both branches
    rng = np.random.default_rng(3)
    xi2 = np.concatenate([rng.uniform(0.0, 0.25, 40), rng.uniform(0.25, 40.0, 40)])
    for t in (0.1, 1.0, 6.0):
        a = np.sqrt(xi2.astype(complex) - 0.25)
        oracle0 = (np.exp(-t / 2.0) * np.cos(t * a)).real
        oracle1 = (np.exp(-t / 2.0) * np.sin(t * a) / a).real
        np.testing.assert_allclose(k0_hat(t, xi2), oracle0, atol=1e-12)
        np.testing.assert_allclose(k1_hat(t, xi2), oracle1, atol=1e-12)


def test_symbol_time_derivatives_match_finite_differences():
    # the velocity row of the step matrix holds dk0/dt = -k0/2 - (|xi|^2 - 1/4) k1
    # and dk1/dt = k0 - k1/2, which follow from differentiating the
    # definitions; the sign on the k1/2 term is what reproduces the initial
    # conditions (see the module docstring).  Half length 2 pi gives the
    # modes |xi|^2 = k^2/4: 0, the branch circle, 1, ..., 16.
    grid = SpatialGrid(1, 2.0 * math.pi, 16)
    xi2 = grid.xi_squared
    h = 1e-6
    for t in (0.3, 1.0, 4.0):
        fd0 = (k0_hat(t + h, xi2) - k0_hat(t - h, xi2)) / (2 * h)
        fd1 = (k1_hat(t + h, xi2) - k1_hat(t - h, xi2)) / (2 * h)
        dk0, dk1 = StepCoefficients(grid, t).matrix[1, :2]
        np.testing.assert_allclose(dk0, fd0, atol=1e-8)
        np.testing.assert_allclose(dk1, fd1, atol=1e-8)


def test_symbol_uniform_bounds():
    rng = np.random.default_rng(11)
    xi2 = np.concatenate([[0.0, 0.25], rng.uniform(0.0, 100.0, 500)])
    for t in (0.0, 0.3, 1.0, 10.0, 300.0):
        k0 = k0_hat(t, xi2)
        k1 = k1_hat(t, xi2)
        assert np.all(np.abs(k0) <= 1.0 + 1e-12)
        assert np.all(np.abs(k1) <= min(t, 1.0) + 1e-12)
        inner = xi2 <= 0.25
        assert np.all(k1[inner] >= -1e-15)


# ---------------------------------------------------------------------------
# linear evolution
# ---------------------------------------------------------------------------

def test_evolve_time_zero_is_identity(grid1d):
    state = bump_state(grid1d)
    out = linear_evolve(state, 0.0)
    assert out is state


def test_evolve_rejects_negative_duration(grid1d):
    with pytest.raises(ValueError):
        linear_evolve(bump_state(grid1d), -0.5)


def test_evolve_semigroup(grid1d):
    state = bump_state(grid1d)
    one = linear_evolve(state, 2.5)
    two = linear_evolve(linear_evolve(state, 1.0), 1.5)
    np.testing.assert_allclose(one.u, two.u, atol=1e-12)
    np.testing.assert_allclose(one.v, two.v, atol=1e-12)
    assert one.time == pytest.approx(two.time)


def test_evolve_outputs_real_and_finite(grid1d):
    rng = np.random.default_rng(5)
    state = FieldState(
        grid1d,
        rng.standard_normal(grid1d.shape),
        rng.standard_normal(grid1d.shape),
        0.0,
    )
    out = linear_evolve(state, 1.7)
    assert out.u.dtype == np.float64
    assert np.isfinite(out.u).all() and np.isfinite(out.v).all()


def test_evolve_matches_modewise_ode_oracle():
    # every Fourier mode solves y'' + y' + nu y = 0; compare against solve_ivp
    grid = SpatialGrid(1, 8.0, 32)
    rng = np.random.default_rng(9)
    state = FieldState(
        grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape), 0.0
    )
    t = 0.9
    out = linear_evolve(state, t)
    uh0 = grid.to_spectrum(state.u)
    vh0 = grid.to_spectrum(state.v)
    uh1 = grid.to_spectrum(out.u)
    vh1 = grid.to_spectrum(out.v)
    for idx, nu in enumerate(grid.xi_squared):
        for part in (np.real, np.imag):
            sol = solve_ivp(
                lambda _, y: [y[1], -y[1] - nu * y[0]],
                (0.0, t),
                [part(uh0[idx]), part(vh0[idx])],
                rtol=1e-12,
                atol=1e-13,
            )
            assert part(uh1[idx]) == pytest.approx(sol.y[0, -1], abs=5e-9)
            assert part(vh1[idx]) == pytest.approx(sol.y[1, -1], abs=5e-9)


def test_linear_energy_decay_rate_one_d():
    # velocity bump data: ||Du|| follows the (1+t)^(-n/4 - 1/2) trend
    grid = SpatialGrid(1, 250.0, 4096)
    state = bump_state(grid, width=2.0 / 7.0)
    times = np.geomspace(1.0, 200.0, 50)
    values = [linear_evolve(state, float(t)).energy_l2() for t in times]
    mask = times >= 20.0
    slope = np.polyfit(np.log1p(times[mask]), np.log(np.array(values)[mask]), 1)[0]
    assert -0.95 <= slope <= -0.55


def test_finite_propagation_of_linear_flow():
    grid = SpatialGrid(1, 64.0, 1024)
    K = 4.0
    x = grid.axis_coords
    w = K / 7.0
    profile = np.exp(-(x**2) / (2 * w * w))
    s = np.clip((np.abs(x) - 0.8 * K) / (0.15 * K), 0.0, 1.0)
    profile *= 1.0 - (10 * s**3 - 15 * s**4 + 6 * s**5)
    state = FieldState(grid, profile, profile, 0.0)
    for t in (5.0, 20.0, 50.0):
        out = linear_evolve(state, t)
        total = grid.l2_norm(out.u)
        exterior = grid.exterior_l2(out.u, t + K)
        assert exterior <= 1e-8 * total


def test_k1_convolution_l2_boundedness_and_decay():
    # ||k1(t) * f||_2 stays bounded for f in L2; for zero-mean data the
    # low-frequency diffusion gives a negative fitted slope
    grid = SpatialGrid(1, 128.0, 2048)
    x = grid.axis_coords
    f = np.exp(-(x**2) / 2.0)
    f_zero_mean = -x * np.exp(-(x**2) / 2.0)  # derivative of a Gaussian
    fh = grid.to_spectrum(f)
    zh = grid.to_spectrum(f_zero_mean)
    times = np.geomspace(0.5, 100.0, 40)
    norm_f = []
    norm_z = []
    for t in times:
        k1 = k1_hat(float(t), grid.xi_squared)
        norm_f.append(grid.l2_norm(grid.to_field(k1 * fh)))
        norm_z.append(grid.l2_norm(grid.to_field(k1 * zh)))
    norm_f = np.array(norm_f)
    norm_z = np.array(norm_z)
    assert norm_f.max() <= 5.0 * grid.l2_norm(f)
    mask = times >= 10.0
    slope = np.polyfit(np.log1p(times[mask]), np.log(norm_z[mask]), 1)[0]
    assert slope < -0.5


# ---------------------------------------------------------------------------
# duhamel step
# ---------------------------------------------------------------------------

def _slope_offset_advance(grid, dt, uh, vh, f0h, f1h):
    """The step as evaluated before the propagator matrix: per-call slope and
    offset divisions, zero mode patched with its exact weights."""
    xi2 = grid.xi_squared
    k0 = k0_hat(dt, xi2)
    k1 = k1_hat(dt, xi2)
    dk0 = -0.5 * k0 - (xi2 - 0.25) * k1
    dk1 = k0 - 0.5 * k1
    relax = 1.0 - k0 - 0.5 * k1
    mix = 0.5 * uh + vh
    up = k0 * uh + k1 * mix
    vp = dk0 * uh + dk1 * mix
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (f1h - f0h) / (xi2 * dt)
        offset = (f0h - slope) / xi2
        uc = offset * relax + slope * (dt - k1)
        vc = slope * relax + f0h * k1
    em = np.expm1(-dt)
    wv0 = -em * (1.0 + 1.0 / dt) - 1.0
    wv1 = 1.0 + em / dt
    zm = xi2 == 0.0
    uc[zm] = f0h[zm] * (dt / 2.0 - wv0) + f1h[zm] * (dt / 2.0 - wv1)
    vc[zm] = f0h[zm] * wv0 + f1h[zm] * wv1
    return up + uc, vp + vc


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("stretch", [1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-3])
def test_step_matrix_matches_slope_offset_oracle(dim, points, stretch):
    # half_length 2 pi puts the first mode of every axis on the branch circle
    # |xi|^2 = 1/4 (inside the Taylor window for the two 1e-9 stretches, just
    # outside it for 1e-3); the zero mode is always present
    grid = SpatialGrid(dim, 2.0 * math.pi * stretch, points)
    assert np.min(np.abs(grid.xi_squared - 0.25)) < 1e-3
    rng = np.random.default_rng(dim)
    shape = grid.xi_squared.shape
    uh, vh, f0h, f1h = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)
    )
    scale = np.abs(uh) + np.abs(vh) + np.abs(f0h) + np.abs(f1h)
    for dt in (0.05, 0.25, 1.3):
        got = StepCoefficients(grid, dt).advance(uh, vh, f0h, f1h)
        want = _slope_offset_advance(grid, dt, uh, vh, f0h, f1h)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-12 * scale)
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


def _advance_in_one_expression(coeffs, uh, vh, f0h, f1h):
    """advance as written before the row helper: both rows in one expression."""
    (uu, um, u0, u1), (vu, vm, v0, v1) = coeffs.matrix
    mix = 0.5 * uh + vh
    return (
        (uu * uh + um * mix) + (u0 * f0h + u1 * f1h),
        (vu * uh + vm * mix) + (v0 * f0h + v1 * f1h),
    )


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 16), (3, 8)])
def test_rows_reused_for_two_end_forcings_are_bit_identical(dim, points):
    # the stepping loop forms the rows once and finishes them for the
    # predicted and for the corrected end forcing
    grid = SpatialGrid(dim, 8.0, points)
    coeffs = StepCoefficients(grid, 0.2)
    rng = np.random.default_rng(dim)
    uh, vh, f0h, f_pred, f_end = (
        grid.to_spectrum(rng.standard_normal(grid.shape)) for _ in range(5)
    )
    u_row, v_row = coeffs.rows(uh, vh, f0h)
    for f1h in (f_pred, f_end):
        want = _advance_in_one_expression(coeffs, uh, vh, f0h, f1h)
        got = (coeffs.finish(u_row, f1h), coeffs.finish(v_row, f1h))
        for g, w in zip((*got, *coeffs.advance(uh, vh, f0h, f1h)), want * 2):
            assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()


def test_duhamel_zero_forcing_equals_linear_evolve(grid1d):
    state = bump_state(grid1d)
    zero = np.zeros(grid1d.shape)
    stepped = duhamel_step(state, zero, zero, 0.25)
    evolved = linear_evolve(state, 0.25)
    np.testing.assert_array_equal(stepped.u, evolved.u)
    np.testing.assert_array_equal(stepped.v, evolved.v)


def test_duhamel_rejects_nonpositive_dt(grid1d):
    state = bump_state(grid1d)
    zero = np.zeros(grid1d.shape)
    with pytest.raises(ValueError):
        duhamel_step(state, zero, zero, 0.0)


def test_duhamel_constant_forcing_zero_mode_oracle():
    # spatially constant forcing c: the mean solves u'' + u' = c from rest,
    # whose solution is c (t - 1 + e^-t)
    grid = SpatialGrid(1, 4.0, 16)
    c = 2.0
    state = FieldState(grid, np.zeros(grid.shape), np.zeros(grid.shape), 0.0)
    forcing = np.full(grid.shape, c)
    dt = 0.25
    for _ in range(40):
        state = duhamel_step(state, forcing, forcing, dt)
    t = 40 * dt
    expected = c * (t - 1.0 + math.exp(-t))
    np.testing.assert_allclose(state.u, expected, rtol=1e-10)


def test_duhamel_matches_ode_oracle_for_linear_in_time_forcing():
    grid = SpatialGrid(1, 8.0, 32)
    rng = np.random.default_rng(21)
    u0 = rng.standard_normal(grid.shape)
    v0 = rng.standard_normal(grid.shape)
    f0 = rng.standard_normal(grid.shape)
    f1 = rng.standard_normal(grid.shape)
    dt = 0.17
    out = duhamel_step(FieldState(grid, u0, v0, 0.0), f0, f1, dt)
    uh = grid.to_spectrum(u0)
    vh = grid.to_spectrum(v0)
    f0h = grid.to_spectrum(f0)
    f1h = grid.to_spectrum(f1)
    uh_out = grid.to_spectrum(out.u)
    for idx, nu in enumerate(grid.xi_squared):
        for part in (np.real, np.imag):
            sol = solve_ivp(
                lambda s, y, nu=nu, a=part(f0h[idx]), b=part(f1h[idx]): [
                    y[1],
                    a + (b - a) * s / dt - y[1] - nu * y[0],
                ],
                (0.0, dt),
                [part(uh[idx]), part(vh[idx])],
                rtol=1e-12,
                atol=1e-13,
            )
            assert part(uh_out[idx]) == pytest.approx(sol.y[0, -1], abs=1e-10)


def test_duhamel_two_half_steps_second_order(grid1d):
    # smooth time-dependent forcing: half-stepping error shrinks like dt^2
    state = bump_state(grid1d, velocity=False)
    x = grid1d.axis_coords

    def forcing(t):
        return np.exp(-(x**2) / 4.0) * math.sin(t)

    def advance(s0, dt, n):
        s = s0
        for i in range(n):
            t0 = s.time
            s = duhamel_step(s, forcing(t0), forcing(t0 + dt), dt)
        return s

    errs = []
    for dt in (0.2, 0.1):
        coarse = advance(state, dt, int(round(1.0 / dt)))
        fine = advance(state, dt / 2.0, int(round(2.0 / dt)))
        errs.append(grid1d.l2_norm(coarse.u - fine.u))
    ratio = errs[0] / errs[1]
    assert ratio >= 3.0  # second-order local accuracy
