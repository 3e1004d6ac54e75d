"""Stepping-loop tests: data construction, memory forcing, blow-up detection."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.blas import dgemm

import memwave.stepper as stepper_mod
from memwave.frac_ops import SOE_STEP, exponential_hat_moments
from memwave.spectral import SpatialGrid, linear_evolve
from memwave.stepper import (
    EXTERIOR_MASS_BUDGET,
    MemoryConvolution,
    Phase,
    ScenarioConfig,
    SolutionHistory,
    StepRecord,
    default_dt,
    detect_blowup,
    make_initial_data,
    memory_estimate,
    run,
    suggested_half_length,
)
from memwave.stepper import _power_p


def small_config(**overrides):
    grid = overrides.pop("grid", SpatialGrid(1, 32.0, 256))
    base = dict(
        grid=grid,
        gamma=0.9,
        p=2.0,
        support_radius=4.0,
        amplitude=1.0,
        dt=0.125,
        t_end=5.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _copy(array):
    return None if array is None else array.copy()


class Collect:
    """Test observer: every node's state, spectrum, |u|^p sample and forcing.

    The spectrum, the sample and the forcing are copied: they live in
    buffers (the sample in the memory sum's block) that later steps rewrite.
    """

    def __init__(self):
        self.states, self.spectra, self.g, self.forcing = [], [], [], []

    def __call__(self, node, state, uh, g, forcing):
        assert node == len(self.states)
        self.states.append(state)
        self.spectra.append(uh.copy())
        self.g.append(_copy(g))
        self.forcing.append(_copy(forcing))


def collected_run(config):
    seen = Collect()
    return run(config, observers=(seen,)), seen


def _memory_blocks(config):
    """Steps per block of the memory sum and the number Q of exponentials."""
    block, rates, _ = stepper_mod._memory_plan(config)
    return block, len(rates)


def memory_forcing(config, samples, node):
    """The memory forcing at ``node`` recomputed from |u|^p samples 0..node."""
    conv = MemoryConvolution(config.gamma, config.dt, config.n_steps)
    return conv.value_at(np.stack(samples), node)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        small_config(gamma=1.0)
    with pytest.raises(ValueError):
        small_config(p=1.0)
    with pytest.raises(ValueError):
        small_config(support_radius=40.0)  # exceeds half_length
    with pytest.raises(ValueError, match="amplitude"):
        small_config(amplitude=-1.0)
    with pytest.raises(ValueError):
        small_config(dt=10.0)  # dt >= t_end
    with pytest.raises(ValueError):
        small_config(blowup_threshold=1.0)
    with pytest.raises(ValueError):
        small_config(data_shape="wavelet")
    with pytest.raises(ValueError):
        small_config(data_shape="custom")  # no samples given


@pytest.mark.parametrize(
    "name,value",
    [
        ("gamma", math.nan),
        ("p", math.nan),
        ("support_radius", math.nan),
        ("amplitude", math.nan),
        ("dt", math.nan),
        ("t_end", math.inf),
        ("blowup_threshold", math.nan),
        ("blowup_threshold", math.inf),
    ],
)
def test_config_rejects_a_non_finite_value_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        small_config(**{name: value})


@pytest.mark.parametrize("shape", ["gaussian_bump", "plateau"])
def test_config_rejects_custom_data_with_a_preset_shape(shape):
    grid = SpatialGrid(1, 32.0, 256)
    samples = (np.zeros(grid.shape), np.zeros(grid.shape))
    with pytest.raises(ValueError, match="custom_data"):
        small_config(grid=grid, data_shape=shape, custom_data=samples)


def test_default_dt_and_box():
    grid = SpatialGrid(1, 32.0, 256)
    assert default_dt(grid) == pytest.approx(min(0.25, 0.5 * grid.dx))
    assert suggested_half_length(4.0, 50.0) == pytest.approx(4.0 + 1.1 * 50.0)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_zero_amplitude_gives_zero_state():
    state = make_initial_data(small_config(amplitude=0.0))
    assert not np.any(state.u)
    assert not np.any(state.v)


@pytest.mark.parametrize("shape", ["gaussian_bump", "plateau"])
def test_preset_data_is_positive_and_supported(shape):
    config = small_config(data_shape=shape)
    state = make_initial_data(config)
    grid = config.grid
    # positive discrete means
    assert np.sum(state.u) * grid.cell_volume > 0.0
    assert np.sum(state.v) * grid.cell_volume > 0.0
    # squared mass outside the support ball is exactly zero by construction
    total = np.sum(state.u**2)
    outside = np.sum(state.u[grid.radius > config.support_radius] ** 2)
    assert outside <= 1e-10 * total


def test_amplitude_normalization_matches_h1_plus_l2():
    config = small_config(amplitude=0.37)
    state = make_initial_data(config)
    grid = config.grid
    l2_u = grid.l2_norm(state.u)
    grad2 = sum(grid.l2_norm(c) ** 2 for c in grid.gradient(state.u))
    i0 = math.sqrt(l2_u**2 + grad2) + grid.l2_norm(state.v)
    assert i0 == pytest.approx(0.37, rel=1e-12)


def test_custom_data_roundtrip():
    grid = SpatialGrid(1, 32.0, 256)
    u0 = np.zeros(grid.shape)
    u1 = np.zeros(grid.shape)
    u1[100:110] = 1.0
    config = small_config(grid=grid, data_shape="custom", custom_data=(u0, u1))
    state = make_initial_data(config)
    np.testing.assert_array_equal(state.v, u1)


def test_initial_data_two_d():
    grid = SpatialGrid(2, 16.0, 64)
    config = ScenarioConfig(
        grid=grid,
        gamma=0.8,
        p=2.0,
        support_radius=4.0,
        amplitude=1.0,
        dt=0.1,
        t_end=1.0,
    )
    state = make_initial_data(config)
    assert state.u.shape == (64, 64)
    assert np.sum(state.u[grid.radius > 4.0] ** 2) == 0.0


@pytest.mark.parametrize(
    "dim,points,half_length,t_end",
    [(2, 128, 6.0, 2.0), (3, 64, 4.0, 1.0)],
)
def test_multidimensional_runs_complete(dim, points, half_length, t_end, monkeypatch):
    # data width over grid cutoff frequency must stay ~7 sigmas for the
    # spectral support ringing to sit below the 1e-8 exterior-mass bound
    grid = SpatialGrid(dim, half_length, points)
    config = ScenarioConfig(
        grid=grid,
        gamma=0.8,
        p=2.0,
        support_radius=2.0,
        amplitude=1e-2,
        dt=0.1,
        t_end=t_end,
    )
    # 20 and 10 steps in one block: the direct sum, which the check below
    # matches to 1e-12 (blocks agree with it to the kernel fit's 1e-9)
    monkeypatch.setattr(
        stepper_mod, "_BLOCK", max(stepper_mod._BLOCK, config.n_steps)
    )
    history, seen = collected_run(config)
    assert history.status.phase is Phase.COMPLETED
    final = history.states[-1]
    assert final.u.shape == grid.shape
    assert np.isfinite(final.u).all()
    for record in history.records:
        assert record.exterior_mass <= EXTERIOR_MASS_BUDGET * max(record.l2_u, 1e-300)
    # memory forcing recomputation agrees with the streamed forcing
    node = len(seen.states) - 1
    np.testing.assert_allclose(
        seen.forcing[node], memory_forcing(config, seen.g, node), rtol=1e-12
    )


def test_multidimensional_linear_matches_evolve():
    grid = SpatialGrid(2, 12.0, 64)
    config = ScenarioConfig(
        grid=grid,
        gamma=0.8,
        p=2.0,
        support_radius=3.0,
        amplitude=1.0,
        dt=0.125,
        t_end=2.0,
        nonlinearity_enabled=False,
    )
    history = run(config)
    reference = linear_evolve(history.states[0], 2.0)
    np.testing.assert_allclose(history.states[-1].u, reference.u, atol=1e-12)
    np.testing.assert_allclose(history.states[-1].v, reference.v, atol=1e-12)


# ---------------------------------------------------------------------------
# memory forcing
# ---------------------------------------------------------------------------

def test_memory_forcing_zero_history():
    config = small_config(amplitude=0.0, t_end=1.0)
    _, seen = collected_run(config)
    forcing = memory_forcing(config, seen.g, 4)
    assert np.all(forcing == 0.0)


def test_memory_forcing_frozen_constant_record():
    # with |u|^p frozen at 1 the forcing is the exact kernel integral
    # t^(1-gamma) / (1-gamma); product integration reproduces it to round-off
    config = small_config(t_end=2.0)
    m_nodes = config.n_steps + 1
    ones = np.ones((m_nodes,) + config.grid.shape)
    gamma = config.gamma
    for node in (1, 5, 16):
        t = node * config.dt
        expected = t ** (1.0 - gamma) / (1.0 - gamma)
        got = memory_forcing(config, ones, node)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_memory_forcing_small_gamma_is_plain_integral():
    # gamma -> 0: the kernel approaches 1, so the forcing approaches the
    # plain time integral of |u|^p
    config = small_config(gamma=1e-6, t_end=2.0, amplitude=0.1, p=2.0)
    _, seen = collected_run(config)
    node = 12
    forcing = memory_forcing(config, seen.g, node)
    g = np.stack(seen.g[: node + 1])
    w = np.full(node + 1, config.dt)
    w[0] = w[-1] = config.dt / 2.0
    trapz = np.tensordot(w, g, axes=(0, 0))
    np.testing.assert_allclose(forcing, trapz, rtol=5e-4, atol=1e-12)


def test_memory_forcing_requires_record():
    # with the nonlinearity disabled there are no |u|^p samples and no forcing
    config = small_config(nonlinearity_enabled=False, t_end=1.0)
    history, seen = collected_run(config)
    assert len(seen.g) == config.n_steps + 1
    assert all(g is None for g in seen.g)
    assert all(f is None for f in seen.forcing)
    assert [r.forcing_l2 for r in history.records] == [0.0] * len(seen.g)


def test_forcing_record_matches_recomputation():
    config = small_config(amplitude=0.2, t_end=2.0)
    _, seen = collected_run(config)
    for node in (3, 9, 15):
        np.testing.assert_allclose(
            seen.forcing[node],
            memory_forcing(config, seen.g[: node + 1], node),
            rtol=1e-12,
            atol=1e-300,
        )


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_disabled_nonlinearity_matches_linear_flow():
    config = small_config(nonlinearity_enabled=False, t_end=3.0)
    history, seen = collected_run(config)
    assert history.status.phase is Phase.COMPLETED
    state0 = history.states[0]
    final = history.states[-1]
    reference = linear_evolve(state0, config.t_end)
    np.testing.assert_allclose(final.u, reference.u, atol=1e-11)
    np.testing.assert_allclose(final.v, reference.v, atol=1e-11)
    assert all(g is None for g in seen.g)


def test_records_align_with_states():
    config = small_config(amplitude=0.1, t_end=2.0)
    history, seen = collected_run(config)
    assert len(history.records) == len(seen.states)
    assert [s.time for s in seen.states] == list(history.times)
    assert history.states == [seen.states[0], seen.states[-1]]
    times = history.times
    assert times[0] == 0.0
    np.testing.assert_allclose(np.diff(times), config.dt)
    for record in history.records:
        assert record.l2_u >= 0.0 and math.isfinite(record.l2_u)


@pytest.mark.parametrize(
    "dim,points,even",
    [
        pytest.param(1, 64, False, id="1-64"),
        pytest.param(2, 16, False, id="2-16"),
        pytest.param(3, 8, False, id="3-8"),
        # the even grid's orthant, as every CLI run takes it
        pytest.param(1, 64, True, id="1-64-even"),
        pytest.param(2, 16, True, id="2-16-even"),
        pytest.param(3, 8, True, id="3-8-even"),
    ],
)
def test_records_match_gradients_of_stored_states(dim, points, even):
    # the records take every norm from the step's spectra by Parseval;
    # white-noise data fills every mode, Nyquist planes included
    grid = SpatialGrid(dim, 8.0, points, even=even)
    rng = np.random.default_rng(dim)
    u0 = 0.05 * rng.standard_normal(grid.shape)
    u1 = 0.05 * rng.standard_normal(grid.shape)
    config = small_config(
        grid=grid, p=2.5, support_radius=4.0, dt=0.25, t_end=2.0,
        data_shape="custom", custom_data=(u0, u1),
    )
    history, seen = collected_run(config)
    assert history.status.phase is Phase.COMPLETED
    assert len(seen.states) == len(history.records)
    for state, forcing, record in zip(seen.states, seen.forcing, history.records):
        grad2 = sum(grid.l2_norm(c) ** 2 for c in grid.gradient(state.u))
        h1_u = math.sqrt(grid.l2_norm(state.u) ** 2 + grad2)
        l2_du = math.sqrt(grid.l2_norm(state.v) ** 2 + grad2)
        assert record.l2_u == pytest.approx(grid.l2_norm(state.u), rel=1e-12)
        assert record.h1_u == pytest.approx(h1_u, rel=1e-12)
        assert record.l2_du == pytest.approx(l2_du, rel=1e-12)
        assert record.forcing_l2 == pytest.approx(grid.l2_norm(forcing), rel=1e-12)


@pytest.mark.parametrize("even", [False, True], ids=["full", "even"])
def test_forcing_norm_is_finite_when_its_spectrum_squares_overflow(even):
    # the last record before the blow-up has a forcing of max 2.8e209: its
    # spectrum's squares overflow, while its L2 norm is finite
    grid = SpatialGrid(1, 32.0, 256, even=even)
    config = small_config(grid=grid, amplitude=1.0, t_end=25.0, blowup_threshold=1e200)
    history, seen = collected_run(config)
    assert history.status.phase is Phase.BLOWUP_DETECTED
    assert all(math.isfinite(r.forcing_l2) for r in history.records)
    forcing = seen.forcing[-1]
    scale = np.max(np.abs(forcing))
    assert scale > 1e200
    norm = scale * math.sqrt(grid.cell_sum(np.square(forcing / scale)))
    assert history.records[-1].forcing_l2 == pytest.approx(norm, rel=1e-10)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5, 2.718281828])
def test_power_p_bit_identical_to_gathered_form(p):
    # _power_p is numpy's power of |u| bit for bit, in place as into a new
    # array: NaN stays NaN (a broken step must reach the run's finiteness
    # checks) and both zeros give +0
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-308,
                        np.nan, -np.nan, np.inf, -np.inf, 1e-300, 1e300, 1.0, -1.0])
    rng = np.random.default_rng(17)
    values = np.concatenate([special, rng.standard_normal(1001),
                             np.exp(rng.uniform(-700.0, 700.0, 1001))])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.abs(values) ** p
        got = _power_p(values, p)
        in_place = _power_p(values, p, out=values)
    assert in_place is values
    for result in (got, in_place):
        assert result.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert np.isnan(got[7:9]).all()
    assert got[:2].view(np.uint64).tolist() == [0, 0]  # +0 for both zeros


def test_runs_are_bit_identical():
    config = small_config(amplitude=0.5, t_end=2.0)
    a, seen_a = collected_run(config)
    b, seen_b = collected_run(config)
    assert a.status == b.status
    np.testing.assert_array_equal(a.states[-1].u, b.states[-1].u)
    np.testing.assert_array_equal(np.stack(seen_a.forcing), np.stack(seen_b.forcing))


def test_global_regime_run_completes_with_small_data():
    config = small_config(p=4.5, amplitude=1e-3, t_end=5.0)
    history = run(config)
    assert history.status.phase is Phase.COMPLETED
    functional = [r.blowup_functional for r in history.records]
    assert max(functional) <= 3.0 * functional[0]


def test_exterior_mass_stays_negligible_in_completed_run():
    config = small_config(p=4.5, amplitude=1e-2, t_end=5.0, grid=SpatialGrid(1, 32.0, 512))
    history = run(config)
    assert history.status.phase is Phase.COMPLETED
    for record in history.records:
        assert record.exterior_mass <= EXTERIOR_MASS_BUDGET * max(record.l2_u, 1e-300)


def test_grid_convergence_under_dt_halving():
    base = dict(p=4.5, amplitude=1e-2, t_end=2.0, grid=SpatialGrid(1, 16.0, 256), support_radius=2.0)
    u_final = {}
    for dt in (0.1, 0.05, 0.025):
        history = run(small_config(dt=dt, **base))
        assert history.status.phase is Phase.COMPLETED
        u_final[dt] = history.states[-1].u
    err_coarse = np.abs(u_final[0.1] - u_final[0.05]).max()
    err_fine = np.abs(u_final[0.05] - u_final[0.025]).max()
    assert err_coarse / err_fine >= 1.5


def test_memory_forcing_against_subinterval_quadrature_oracle():
    # adaptive quadrature of the exact piecewise-linear interpolant, one
    # subinterval at a time: an independent route to the same integral
    from scipy.integrate import quad

    config = small_config(amplitude=0.3, t_end=2.0)
    _, seen = collected_run(config)
    node = 7
    gamma = config.gamma
    dt = config.dt
    t_m = node * dt
    x_index = config.grid.points_per_dim // 2
    g = np.stack(seen.g[: node + 1])[:, x_index]
    oracle = 0.0
    for j in range(node):
        a, b = j * dt, (j + 1) * dt
        slope = (g[j + 1] - g[j]) / dt

        def interp(s, a=a, gj=g[j], slope=slope):
            return gj + slope * (s - a)

        if j == node - 1:
            # singular endpoint at s = t_m: use the algebraic weight (b-s)^-gamma
            val, _ = quad(interp, a, b, weight="alg", wvar=(0.0, -gamma), epsabs=1e-13)
        else:
            val, _ = quad(
                lambda s: interp(s) * (t_m - s) ** (-gamma), a, b, epsabs=1e-13
            )
        oracle += val
    got = memory_forcing(config, seen.g[: node + 1], node)[x_index]
    assert got == pytest.approx(oracle, rel=1e-9)


def test_nonlinear_stepping_against_independent_scalar_oracle():
    # a spatially constant state reduces the equation to the scalar Volterra
    # problem y'' + y' = int_0^t (t-s)^(-gamma) y(s)^2 ds; integrate that with
    # unrelated machinery (Heun in time, Gauss-Jacobi memory quadrature over
    # the linearly interpolated past on a 20x finer grid) and compare
    from scipy.special import roots_jacobi

    gamma, c0, t_end = 0.7, 0.05, 2.0
    grid = SpatialGrid(1, 4.0, 16)
    config = ScenarioConfig(
        grid=grid,
        gamma=gamma,
        p=2.0,
        support_radius=1.0,
        amplitude=1.0,
        dt=0.01,
        t_end=t_end,
        data_shape="custom",
        custom_data=(np.full(grid.shape, c0), np.zeros(grid.shape)),
    )
    history = run(config)
    assert history.status.phase is Phase.COMPLETED
    got = history.states[-1].u.mean()

    n = 4000
    h = t_end / n
    s_grid = h * np.arange(n + 1)
    y = np.empty(n + 1)
    y[0] = c0
    v = 0.0
    xj, wj = roots_jacobi(64, -gamma, 0.0)

    def forcing(t, known):
        if t == 0.0:
            return 0.0
        s = t * (xj + 1.0) / 2.0
        vals = np.interp(s, s_grid[: known + 1], y[: known + 1]) ** 2
        return (t / 2.0) ** (1.0 - gamma) * float(np.dot(wj, vals))

    for k in range(n):
        t = k * h
        f0 = forcing(t, k)
        # predict the new sample so the memory covers (t, t+h), then Heun
        y[k + 1] = y[k] + h * v
        f1 = forcing(t + h, k + 1)
        a1 = f0 - v
        v_star = v + h * a1
        a2 = f1 - v_star
        y[k + 1] = y[k] + h * (v + v_star) / 2.0
        v = v + h * (a1 + a2) / 2.0

    assert got == pytest.approx(y[-1], rel=1e-3)


def test_blowup_detected_for_supercritical_data():
    config = small_config(
        grid=SpatialGrid(1, 32.0, 256),
        gamma=0.9,
        p=2.0,
        amplitude=1.0,
        dt=0.125,
        t_end=25.0,
    )
    history, seen = collected_run(config)
    assert history.status.phase is Phase.BLOWUP_DETECTED
    assert history.status.t is not None and history.status.t < 25.0
    # nothing appended after detection
    assert history.records[-1].t <= history.status.t
    assert len(history.records) == len(seen.states)


def test_blowup_time_non_increasing_in_amplitude():
    times = []
    for amplitude in (1.0, 2.0, 4.0):
        history = run(small_config(amplitude=amplitude, t_end=25.0))
        assert history.status.phase is Phase.BLOWUP_DETECTED
        times.append(history.status.t)
    assert times[0] >= times[1] >= times[2]


# ---------------------------------------------------------------------------
# blocked memory sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "dim,points,gamma,B",
    [
        # the default block size is the case without a block in its id
        pytest.param(
            dim, points, gamma, B,
            id=f"{dim}-{points}-{gamma}" + ("" if B == stepper_mod._BLOCK else f"-block{B}"),
        )
        for dim, points in [(1, 64), (2, 16), (3, 8)]
        for gamma in [0.1, 0.5, 0.9]
        for B in [4, stepper_mod._BLOCK, 32]
    ],
)
def test_blocked_forcing_matches_direct_sum_at_every_node(
    dim, points, gamma, B, monkeypatch
):
    # 400 steps in blocks of 4, of the default B and of 32: the forcing
    # streamed at every node, the nodes right after each fold included,
    # against the direct sum over all samples
    monkeypatch.setattr(stepper_mod, "_BLOCK", B)
    config = small_config(
        grid=SpatialGrid(dim, 8.0, points), gamma=gamma, support_radius=4.0,
        amplitude=0.05, dt=0.05, t_end=20.0,
    )
    conv = MemoryConvolution(config.gamma, config.dt, config.n_steps)
    block, terms = _memory_blocks(config)
    assert (block, config.n_steps) == (B, 400) and terms > 0
    history, seen = collected_run(config)
    assert history.status.phase is Phase.COMPLETED
    G = np.stack(seen.g)
    for node in range(1, config.n_steps + 1):
        np.testing.assert_allclose(
            seen.forcing[node], conv.value_at(G, node), rtol=1e-8, atol=1e-300
        )


def _dgemm_fold(modes, decay, moments, samples, lagged, past):
    """The block-end fold as it was through scipy's BLAS: the product added
    into modes.T (Fortran ordered) by one dgemm with beta = 1."""
    modes *= decay
    dgemm(1.0, samples.T, moments.T, 1.0, modes.T, overwrite_c=True)
    np.matmul(lagged, modes, out=past)


@pytest.mark.parametrize("points", [4, 1000, 4096, 65536])
@pytest.mark.parametrize("terms", [5, 23, 30, 32, 33, 34, 42, 99, 127, 200])
def test_fold_in_chunks_matches_the_dgemm_fold(terms, points):
    # fewer modes than the B = 8 rows of one chunk, whole chunks only, and a
    # last chunk of 1, 2, 3, 6 or 7 rows; 23 and 30 are the Q of a run of 200
    # and of 3471 steps (the benchmark's 3-D and 1-D runs)
    B, dt = stepper_mod._BLOCK, 0.05
    rng = np.random.default_rng(terms * points)
    rates = np.geomspace(1e-3, 1e3, terms)
    weights = rng.uniform(0.1, 1.0, terms)
    lagged = weights * np.exp(-np.outer(dt * np.arange(1, B + 1), rates))
    decay = np.exp(-B * dt * rates)[:, None]
    moments = exponential_hat_moments(rates, dt, B)
    samples = rng.uniform(0.0, 1.0, (B + 1, points))
    start = rng.uniform(0.0, 1.0, (terms, points))
    want_modes, want_past = start.copy(), np.empty((B, points))
    _dgemm_fold(want_modes, decay, moments, samples, lagged, want_past)
    modes, past = start.copy(), rng.uniform(0.0, 1.0, (B, points))
    stepper_mod._fold_block(modes, decay, moments, samples, past)
    np.matmul(lagged, modes, out=past)
    assert np.abs(modes - want_modes).max() <= 1e-15 * np.abs(want_modes).max()
    assert np.abs(past - want_past).max() <= 1e-15 * np.abs(want_past).max()


@pytest.mark.parametrize("points", [4, 1000, 4096, 4097, 65536])
@pytest.mark.parametrize("terms", [5, 23, 29, 30, 33, 34, 36])
def test_fold_in_tiles_is_the_full_width_fold_bit_for_bit(terms, points):
    # tiles of 3, 1000 and the run's width where they are narrower than the
    # block, in uneven splits (4097 points in tiles of at most 4096 are two
    # of 2048 and 2049); 23 and 30 are the Q of a run of 200 and of 3471
    # steps, and 33 leaves a last chunk of one mode
    B, dt = stepper_mod._BLOCK, 0.05
    rng = np.random.default_rng(terms * points)
    rates = np.geomspace(1e-3, 1e3, terms)
    decay = np.exp(-B * dt * rates)[:, None]
    moments = exponential_hat_moments(rates, dt, B)
    samples = rng.uniform(0.0, 1.0, (B + 1, points))
    start = rng.uniform(0.0, 1.0, (terms, points))
    want = start.copy()
    stepper_mod._fold_block(want, decay, moments, samples, np.empty((B, points)))
    widths = [w for w in (3, 1000, stepper_mod._FOLD_TILE) if w < points]
    assert widths
    for width in widths:
        modes = start.copy()
        stepper_mod._fold_block(modes, decay, moments, samples, np.empty((B, width)))
        assert modes.tobytes() == want.tobytes()


def _parent_power_p(u, p):
    """|u|^p as a new array."""
    return np.power(np.abs(u), p)


def _parent_record(config, state, uh, vh, fh):
    """The per-node norms: Parseval sums over the spectra of u, v and the
    forcing, and the exterior mass from a mask gather."""
    grid = config.grid
    counts = grid.cell_weights if grid.even else grid._mirror_counts
    weights = counts * (grid.cell_volume / grid.points_per_dim**grid.dim)
    sym2 = sum(np.abs(sym) ** 2 for sym in grid.grad_symbols)

    def squared(spectrum, w=weights):
        return float(np.vdot(spectrum, w * spectrum).real)

    l2_u2, grad2 = squared(uh), squared(uh, sym2 * weights)
    forcing_l2 = math.sqrt(squared(fh))
    if not math.isfinite(forcing_l2):  # the squares overflow: scale them
        scale = float(np.max(np.abs(fh)))
        forcing_l2 = scale * math.sqrt(squared(fh / scale))
    outside = grid.radius > state.time + config.support_radius
    return StepRecord(
        t=state.time,
        l2_u=math.sqrt(l2_u2),
        h1_u=math.sqrt(l2_u2 + grad2),
        l2_du=math.sqrt(squared(vh) + grad2),
        forcing_l2=forcing_l2,
        exterior_mass=math.sqrt(grid.cell_sum(state.u**2, where=outside)),
    )


def _parent_run(config, power=_parent_power_p):
    """The step loop written out in plain numpy, apart from the stepper's
    helpers: every product, the memory sum's known part and every norm.

    Returns the records, every node's u spectrum and forcing, the final
    state and the status, for the blocked memory sum as for a single block.
    """
    grid = config.grid
    M, dt, p = config.n_steps, config.dt, config.p
    state0 = make_initial_data(config)
    uh = grid.to_spectrum(state0.u)
    vh = grid.to_spectrum(state0.v)
    records = [_parent_record(config, state0, uh, vh, np.zeros_like(uh))]
    spectra, forcings = [uh], [np.zeros(grid.shape)]
    matrix = stepper_mod.StepCoefficients(grid, dt).matrix

    def rows(uh, vh, f0h):
        mix = 0.5 * uh + vh
        return [(cu * uh + cm * mix, c0 * f0h, c1) for cu, cm, c0, c1 in matrix]

    def finish(row, f1h):
        free, start, weight = row
        return free + (start + weight * f1h)

    B, terms = _memory_blocks(config)
    block = np.zeros((B + 1,) + grid.shape)
    with np.errstate(over="ignore"):
        block[0] = power(state0.u, p)
    conv = MemoryConvolution(config.gamma, dt, B)
    w = conv.tail_weight

    def known_part(k):
        acc = conv.first[k] * block[0]
        if k >= 2:
            acc = acc + np.tensordot(conv.conv[k - 1 : 0 : -1], block[1:k], axes=(0, 0))
        return conv.scale * acc

    past = None
    if terms:
        rates, weights = stepper_mod.exponential_sum(config.gamma, dt, M * dt)
        lagged = weights * np.exp(-np.outer(dt * np.arange(1, B + 1), rates))
        decay = np.exp(-B * dt * rates)[:, None]
        moments = exponential_hat_moments(rates, dt, B)
        modes = np.zeros((terms, block[0].size))
        past = np.zeros((B, block[0].size))
    gh = grid.to_spectrum(block[0])
    fh_start = np.zeros_like(uh)
    state, start = state0, 0

    def stop(status):
        return records, spectra, forcings, state, status

    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(M):
            t_next = (m + 1) * dt
            k = m + 1 - start
            known = known_part(k)
            if past is not None:
                known += past[k - 1].reshape(grid.shape)
            kh = grid.to_spectrum(known)
            u_row, v_row = rows(uh, vh, fh_start)
            uh_star = finish(u_row, kh + w * gh)
            g_star = power(grid.to_field(uh_star), p)
            fh_end = kh + w * grid.to_spectrum(g_star)
            uh, vh = finish(u_row, fh_end), finish(v_row, fh_end)
            u = grid.to_field(uh)
            v = grid.to_field(vh)
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                return stop(stepper_mod._non_finite_status(
                    config, records[-1], records[0], t_next, "u or v"
                ))
            block[k] = power(u, p)
            forcing = np.add(known, w * block[k], out=known)
            if not np.isfinite(forcing).all():
                return stop(stepper_mod._non_finite_status(
                    config, records[-1], records[0], t_next, "forcing"
                ))
            gh = grid.to_spectrum(block[k])
            fh_start = np.add(kh, w * gh, out=kh)
            state = stepper_mod.FieldState(grid, u, v, t_next)
            records.append(_parent_record(config, state, uh, vh, fh_start))
            spectra.append(uh)
            forcings.append(forcing)
            if detect_blowup(records[-1], records[0], config.blowup_threshold):
                return stop(stepper_mod.RunStatus.blow_up(t_next))
            if past is not None and k == B:
                modes *= decay
                for q in range(0, terms, B):
                    modes[q : q + B] += moments[q : q + B] @ block.reshape(B + 1, -1)
                np.matmul(lagged, modes, out=past)
                block[0] = block[B]
                start = m + 1
    return stop(stepper_mod.RunStatus.completed())


def _record_bytes(records):
    return np.array([dataclasses.astuple(r) for r in records]).tobytes()


def _assert_run_is_the_parent_loop(config, power=_parent_power_p):
    history, seen = collected_run(config)
    records, spectra, forcings, state, status = _parent_run(config, power)
    assert history.status == status
    # bit for bit, NaN included
    assert _record_bytes(history.records) == _record_bytes(records)
    assert history.states[-1].u.tobytes() == state.u.tobytes()
    assert history.states[-1].v.tobytes() == state.v.tobytes()
    assert len(seen.forcing) == len(forcings) == len(spectra)
    for got, want in zip(seen.forcing, forcings):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(seen.spectra, spectra):
        assert got.tobytes() == want.tobytes()
    return history


@pytest.mark.parametrize(
    "overrides",
    [
        dict(amplitude=0.5, t_end=5.0),
        dict(amplitude=1.0, t_end=25.0),  # blows up
        dict(grid=SpatialGrid(2, 8.0, 32), support_radius=3.0, p=2.5, t_end=3.0),
    ],
)
def test_run_of_one_block_is_the_direct_loop_bit_for_bit(overrides, monkeypatch):
    config = small_config(**overrides)
    # 40 and 200 steps: one block only when it is at least as long as the run
    monkeypatch.setattr(
        stepper_mod, "_BLOCK", max(stepper_mod._BLOCK, config.n_steps)
    )
    assert _memory_blocks(config) == (config.n_steps, 0)
    _assert_run_is_the_parent_loop(config)


@pytest.mark.parametrize("steps", [1, 5, stepper_mod._BLOCK])
@pytest.mark.parametrize(
    "overrides",
    [
        dict(p=2.5, amplitude=0.5),
        dict(grid=SpatialGrid(2, 8.0, 32, even=True), support_radius=3.0, p=2.5),
    ],
    ids=["n1", "n2-even"],
)
def test_short_run_is_the_parent_loop_bit_for_bit(overrides, steps):
    # at most B steps, unpatched: one block of the run's length whose
    # history part is zeros, against the parent loop's direct sum (t_end
    # lies past the last node, since dt must be shorter than t_end)
    config = small_config(dt=0.125, t_end=0.125 * steps + 0.03, **overrides)
    assert config.n_steps == steps
    assert _memory_blocks(config) == (steps, 0)
    history = _assert_run_is_the_parent_loop(config)
    assert history.status.phase is Phase.COMPLETED
    assert len(history.records) == steps + 1


@pytest.mark.parametrize(
    "overrides,phase",
    [
        (dict(p=4.5, amplitude=1e-2, t_end=10.0), Phase.COMPLETED),
        (dict(grid=SpatialGrid(2, 8.0, 32), support_radius=3.0, p=2.5, dt=0.05,
              t_end=3.0), Phase.COMPLETED),
        (dict(grid=SpatialGrid(3, 6.0, 16), support_radius=2.0, p=4.5, amplitude=1e-2,
              dt=0.05, t_end=2.5), Phase.COMPLETED),
        (dict(amplitude=1.0, t_end=25.0), Phase.BLOWUP_DETECTED),
        # overflows after growing past 1e100, short of the threshold
        (dict(amplitude=1.0, t_end=25.0, blowup_threshold=1e200), Phase.BLOWUP_DETECTED),
        # the even grid's orthant, as every CLI run takes it
        (dict(grid=SpatialGrid(1, 32.0, 256, even=True), p=4.5, amplitude=1e-2,
              t_end=10.0), Phase.COMPLETED),
        (dict(grid=SpatialGrid(2, 8.0, 32, even=True), support_radius=3.0, p=2.5,
              dt=0.05, t_end=3.0), Phase.COMPLETED),
        (dict(grid=SpatialGrid(3, 6.0, 16, even=True), support_radius=2.0, p=4.5,
              amplitude=1e-2, dt=0.05, t_end=2.5), Phase.COMPLETED),
        (dict(grid=SpatialGrid(1, 32.0, 256, even=True), amplitude=1.0, t_end=25.0),
         Phase.BLOWUP_DETECTED),
        # 33^3 stored points: the fold takes them in more than one tile
        (dict(grid=SpatialGrid(3, 6.0, 64, even=True), support_radius=2.0, p=4.5,
              amplitude=1e-2, dt=0.05, t_end=1.0), Phase.COMPLETED),
    ],
    ids=["n1", "n2", "n3", "blowup", "overflow", "n1-even", "n2-even", "n3-even",
         "blowup-even", "n3-even-tiles"],
)
def test_blocked_run_is_the_parent_loop_bit_for_bit(overrides, phase):
    config = small_config(**overrides)
    block, terms = _memory_blocks(config)
    assert config.n_steps > block == stepper_mod._BLOCK and terms > 0
    history = _assert_run_is_the_parent_loop(config)
    assert history.status.phase is phase


def test_forced_overflow_is_the_parent_loop_bit_for_bit(monkeypatch):
    # |u|^p of 1e100 * u overflows the first sample: a numerical failure
    # after the first step, in the loop and in its parent alike
    power_p = stepper_mod._power_p
    monkeypatch.setattr(
        stepper_mod, "_power_p", lambda u, p, out=None: power_p(1e100 * u, p, out=out)
    )
    config = small_config(p=4.5, amplitude=1e-3, t_end=5.0)
    assert _memory_blocks(config)[1] > 0
    history = _assert_run_is_the_parent_loop(
        config, lambda u, p: _parent_power_p(1e100 * u, p)
    )
    assert history.status.phase is Phase.NUMERICAL_FAILURE


@pytest.mark.parametrize("grid_points,t_end", [(256, 25.0), (512, 50.0)])
def test_blow_up_ladder_is_the_same_in_blocks_of_four(grid_points, t_end, monkeypatch):
    # the ladders of test_blowup_time_non_increasing_in_amplitude and of
    # acceptance criterion 7, with the direct sum and with 4-step blocks
    def ladder():
        return [
            run(small_config(
                grid=SpatialGrid(1, grid_points / 8.0, grid_points),
                amplitude=amplitude, t_end=t_end,
            )).status
            for amplitude in (1.0, 2.0, 4.0)
        ]

    # one block longer than any run of the ladder is the direct sum
    monkeypatch.setattr(stepper_mod, "_BLOCK", 10**6)
    assert _memory_blocks(small_config(t_end=t_end))[1] == 0
    direct = ladder()
    monkeypatch.setattr(stepper_mod, "_BLOCK", 4)
    block, terms = _memory_blocks(small_config(t_end=t_end))
    assert block == 4 and terms > 0
    blocked = ladder()
    assert all(s.phase is Phase.BLOWUP_DETECTED for s in direct)
    assert blocked == direct


def test_overflow_at_small_amplitude_is_a_numerical_failure(monkeypatch):
    # |u|^p taken of 1e100 * u overflows at the first sample, while the
    # blow-up functional of the data is still its initial value
    power_p = stepper_mod._power_p
    monkeypatch.setattr(
        stepper_mod, "_power_p", lambda u, p, out=None: power_p(1e100 * u, p, out=out)
    )
    config = small_config(p=4.5, amplitude=1e-3, t_end=2.0)
    history = run(config)
    assert history.status.phase is Phase.NUMERICAL_FAILURE
    assert history.status.t == config.dt
    assert "non-finite" in history.status.reason
    assert len(history.records) == 1


def test_overflow_after_growth_is_a_blow_up():
    # the supercritical run overflows before its functional reaches the
    # threshold 1e200, after it has grown past 1e200 ** 0.5
    config = small_config(amplitude=1.0, t_end=25.0, blowup_threshold=1e200)
    history = run(config)
    assert history.status.phase is Phase.BLOWUP_DETECTED
    last = history.records[-1].blowup_functional / history.records[0].blowup_functional
    assert 1e100 <= last < 1e200
    # the default threshold detects the same blow-up one step earlier
    assert run(small_config(amplitude=1.0, t_end=25.0)).status.t < history.status.t


def test_nan_in_the_predictor_is_a_numerical_failure(monkeypatch):
    # one NaN in the predictor's u_hat of step 5 (finish's first call in a
    # step is the predictor's) spreads over the predicted |u|^p; the step's
    # end forcing is then NaN and the run must stop there, not complete
    finish, calls = stepper_mod.StepCoefficients.finish, []

    def poisoned(row, f1h):
        out = finish(row, f1h)
        if len(calls) == 3 * 4:
            out.flat[3] = np.nan
        calls.append(None)
        return out

    monkeypatch.setattr(stepper_mod.StepCoefficients, "finish", staticmethod(poisoned))
    config = small_config(p=2.5, amplitude=1e-2, t_end=2.0)
    history = run(config)
    assert history.status.phase is Phase.NUMERICAL_FAILURE
    assert history.status.t == 5 * config.dt
    assert len(history.records) == 5


# ---------------------------------------------------------------------------
# memory estimate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nonlinear", [True, False])
@pytest.mark.parametrize(
    "dim,points,t_end,even",
    [
        # 40 steps, more than one block
        pytest.param(1, 1024, 2.0, False, id="1-1024"),
        pytest.param(2, 64, 2.0, False, id="2-64"),
        pytest.param(3, 32, 2.0, False, id="3-32"),
        # 400 steps: a nonlinear run folds its block every B steps
        pytest.param(1, 1024, 20.0, False, id="1-1024-blocked"),
        # the even grids' orthants: B steps (one block, the direct sum) and 40
        pytest.param(2, 128, stepper_mod._BLOCK * 0.05, True, id="2-128-even-direct"),
        pytest.param(2, 128, 2.0, True, id="2-128-even"),
        pytest.param(3, 32, stepper_mod._BLOCK * 0.05, True, id="3-32-even-direct"),
        pytest.param(3, 64, 2.0, True, id="3-64-even"),
        # 257 stored points, the longest axis of the matrix transforms, whose
        # matrices outweigh the fields; 513 stored points through pocketfft
        pytest.param(1, 512, 2.0, True, id="1-512-even"),
        pytest.param(1, 1024, 2.0, True, id="1-1024-even"),
    ],
)
def test_memory_estimate_bounds_traced_peak(dim, points, t_end, even, nonlinear):
    tracemalloc.start()
    try:
        # a fresh grid, so its cached geometry is allocated inside the run
        grid = SpatialGrid(dim, 16.0, points, even=even)
        config = small_config(
            grid=grid, p=4.5, amplitude=1e-2, dt=0.05, t_end=t_end,
            nonlinearity_enabled=nonlinear,
        )
        history = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert history.status.phase is Phase.COMPLETED
    if nonlinear:
        assert (_memory_blocks(config)[1] > 0) == (
            config.n_steps > stepper_mod._BLOCK
        )
    estimate = memory_estimate(config)
    assert peak <= estimate <= 2 * peak


def test_memory_blocks_switch_to_blocks_after_one_block():
    # dt = 0.125: B steps are one block of the direct sum, B + 1 take blocks
    B = stepper_mod._BLOCK
    one, two = (small_config(t_end=0.125 * M) for M in (B, B + 1))
    assert (one.n_steps, two.n_steps) == (B, B + 1)
    assert _memory_blocks(one) == (B, 0)
    block, terms = _memory_blocks(two)
    assert block == B and terms > 0


def test_memory_estimate_of_blocked_sum_does_not_grow_with_steps():
    grid = SpatialGrid(1, 16.0, 1024)
    long, longer = (small_config(grid=grid, dt=0.05, t_end=t) for t in (50.0, 100.0))
    block, terms = _memory_blocks(longer)
    assert terms > 0 and block == stepper_mod._BLOCK
    # twice the steps add a few hundred bytes of records per node and the
    # exponentials of one more ln 2 of rates, ceil(ln 2 / h) + 1 at the
    # trapezoid step h (a history row and two weight columns each), not
    # 1000 sample rows
    grown = memory_estimate(longer) - memory_estimate(long)
    added = math.ceil(math.log(2.0) / SOE_STEP) + 1
    rows = added * (grid.points_per_dim + 2 * (block + 1)) * 8
    assert grown <= (longer.n_steps - long.n_steps) * 400 + rows


def test_run_refuses_a_run_larger_than_physical_memory():
    # 2048^3 points over 40 steps: the working arrays alone need 2 TB
    config = small_config(grid=SpatialGrid(3, 8.0, 2048))
    assert memory_estimate(config) > 2e12
    with pytest.raises(ValueError, match="physical memory"):
        run(config)


def test_run_refuses_before_allocating(monkeypatch):
    config = small_config(t_end=1.0)
    needed = memory_estimate(config)

    def no_data(config):
        raise AssertionError("initial data built before the memory check")

    monkeypatch.setattr(stepper_mod, "make_initial_data", no_data)
    monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ValueError, match="physical memory"):
        run(config)
    monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: needed)
    with pytest.raises(AssertionError, match="before the memory check"):
        run(config)


def test_run_is_admitted_in_memory_that_blocks_of_32_would_exceed(monkeypatch):
    # 40 steps on a 2-D even grid take blocks; the memory sum in blocks of B
    # needs 2 (32 - B) fewer sample rows, and two fewer Q x (32 - B) stretches
    # of weights, than in blocks of 32
    config = small_config(
        grid=SpatialGrid(2, 8.0, 32, even=True), support_radius=3.0, p=2.5,
        dt=0.05, t_end=2.0,
    )
    needed = memory_estimate(config)
    with monkeypatch.context() as patch:
        patch.setattr(stepper_mod, "_BLOCK", 32)
        block_32 = _memory_blocks(config)
        needed_at_32 = memory_estimate(config)
    monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: needed_at_32 - 1)
    assert run(config).status.phase is Phase.COMPLETED
    B, terms = _memory_blocks(config)
    assert config.n_steps > 32 > B and terms > 0 and block_32 == (32, terms)
    points = math.prod(config.grid.shape)
    assert needed_at_32 - needed == (2 * (32 - B) * points + 2 * terms * (32 - B)) * 8


@pytest.mark.parametrize("nonlinear,fits", [(True, 1), (False, 0)])
def test_run_fits_the_exponential_sum_once(nonlinear, fits, monkeypatch):
    # the memory check and the memory sum share one fit of the kernel
    config = small_config(nonlinearity_enabled=nonlinear)
    assert config.n_steps > stepper_mod._BLOCK
    calls = []
    exponential_sum = stepper_mod.exponential_sum

    def spy(gamma, dt, horizon):
        calls.append((gamma, dt, horizon))
        return exponential_sum(gamma, dt, horizon)

    monkeypatch.setattr(stepper_mod, "exponential_sum", spy)
    run(config)
    assert calls == [(config.gamma, config.time_grid.dt, config.time_grid.horizon)] * fits


# ---------------------------------------------------------------------------
# blow-up predicate
# ---------------------------------------------------------------------------

def _record(t, l2_u, h1_u, l2_du, forcing=0.0, exterior=0.0):
    return StepRecord(t, l2_u, h1_u, l2_du, forcing, exterior)


def test_detect_blowup_equal_records_is_false():
    rec = _record(0.0, 1.0, 1.5, 1.2)
    assert not detect_blowup(rec, rec, 1e6)


def test_detect_blowup_nonfinite_is_true():
    bad = _record(1.0, math.inf, math.inf, math.inf)
    ref = _record(0.0, 1.0, 1.5, 1.2)
    assert detect_blowup(bad, ref, 1e6)


def test_detect_blowup_threshold_is_closed():
    ref = _record(0.0, 1.0, 1.0, 1.0)
    # blowup functional of ref: h1 + sqrt(l2_du^2 - h1^2 + l2_u^2) = 1 + 1 = 2
    assert ref.blowup_functional == pytest.approx(2.0)
    at_threshold = _record(1.0, 10.0, 10.0, 10.0)  # functional 20 = 10x
    assert detect_blowup(at_threshold, ref, 10.0)
    below = _record(1.0, 9.99, 9.99, 9.99)
    assert not detect_blowup(below, ref, 10.0)


def test_step_record_velocity_norm_recovery():
    rec = _record(0.0, l2_u=0.6, h1_u=1.0, l2_du=1.3)
    # l2_ut = sqrt(l2_du^2 - grad^2) with grad^2 = h1^2 - l2_u^2
    expected = math.sqrt(1.3**2 - (1.0**2 - 0.6**2))
    assert rec.l2_ut == pytest.approx(expected)
