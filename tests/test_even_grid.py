"""The even grid against the full grid it stands for.

A field even in every axis lives on the orthant 0 <= x <= L of the even grid
(N/2 + 1 points per axis).  Reflected to the full grid, its index j holds the
orthant's index |j - N/2|.  Every quantity below must equal its value on the
reflected field up to round-off: the full-grid path is the oracle.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from memwave import cli, diagnostics, spectral, stepper
from memwave.frac_ops import FracOrder
from memwave.spectral import FieldState, SpatialGrid
from memwave.stepper import Phase, ScenarioConfig


def full_of(grid: SpatialGrid) -> SpatialGrid:
    return SpatialGrid(grid.dim, grid.half_length, grid.points_per_dim)


def reflect(grid: SpatialGrid, field: np.ndarray) -> np.ndarray:
    """The even grid's ``field`` on every point of the full grid."""
    N = grid.points_per_dim
    index = np.abs(np.arange(N) - N // 2)
    return field[np.ix_(*[index] * grid.dim)]


def even_field(grid: SpatialGrid, seed: int) -> np.ndarray:
    """A smooth field, even in every axis but not radial, supported well
    inside the box."""
    x = np.meshgrid(*[grid.axis_coords] * grid.dim, indexing="ij", sparse=True)
    r2 = sum(a**2 for a in x)
    angular = 1.0 + 0.3 * math.prod(np.cos((seed + k + 1) * a) for k, a in enumerate(x))
    return np.exp(-r2 / 2.0) * angular


# the benchmark's box, 4 + 1.1 * 50 = 59.00000000000001, is not a dyadic
# rational: -L + j * dx would miss mirror symmetry by an ulp.  Its 3-D case
# takes 32 points: at 16 (dx = 7.4) the Gagliardo test's ball holds only
# the origin, where the gradient vanishes
NON_DYADIC = 4.0 + 1.1 * 50.0


@pytest.fixture(
    params=[
        (1, 64, 8.0), (2, 32, 8.0), (3, 16, 8.0),
        (1, 64, NON_DYADIC), (2, 32, NON_DYADIC), (3, 32, NON_DYADIC),
    ],
    ids=["1-D", "2-D", "3-D", "1-D-non-dyadic", "2-D-non-dyadic", "3-D-non-dyadic"],
)
def grids(request):
    dim, points, half_length = request.param
    even = SpatialGrid(dim, half_length, points, even=True)
    return even, full_of(even)


def close(got, want, rel=1e-12):
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_even_grid_holds_the_orthant(grids):
    even, full = grids
    assert even.shape == (full.points_per_dim // 2 + 1,) * even.dim
    assert even.spectrum_shape == even.shape
    assert even.spectrum_dtype == np.dtype(float)
    assert full.spectrum_dtype == np.dtype(complex)
    assert even.axis_coords[0] == 0.0 and even.axis_coords[-1] == even.half_length
    # the orthant's radii are the full grid's, bit for bit
    assert reflect(even, even.radius).tobytes() == full.radius.tobytes()
    assert float(np.sum(even.cell_weights)) == full.points_per_dim**even.dim


def test_coordinates_are_mirror_symmetric(grids):
    even, full = grids
    N = full.points_per_dim
    x, k = full.axis_coords, np.arange(N // 2 + 1)
    assert np.array_equal(x[N // 2 + k[:-1]], -x[N // 2 - k[:-1]])
    assert np.array_equal(even.axis_coords, -x[N // 2 - k])


def test_spectrum_is_the_full_spectrum_up_to_the_origin_sign(grids):
    even, full = grids
    u = even_field(even, 0)
    got = even.to_spectrum(u)
    want = full.to_spectrum(reflect(even, u))
    k = np.arange(even.points_per_dim // 2 + 1)
    sign = math.prod(np.meshgrid(*[(-1.0) ** k] * even.dim, indexing="ij", sparse=True))
    head = want[tuple(slice(0, n) for n in even.spectrum_shape)]
    scale = np.abs(want).max()
    assert np.abs(head.real - sign * got).max() <= 1e-14 * scale
    assert np.abs(head.imag).max() <= 1e-13 * scale
    assert np.array_equal(even.xi_squared, full.xi_squared[tuple(slice(0, n) for n in even.shape)])
    assert np.abs(even.to_field(got) - u).max() <= 1e-15 * np.abs(u).max()


def test_gradient_is_the_full_gradient(grids):
    even, full = grids
    u = even_field(even, 1)
    scale = max(np.abs(c).max() for c in full.gradient(reflect(even, u)))
    for got, want in zip(even.gradient(u), full.gradient(reflect(even, u))):
        assert np.abs(reflect(even, np.abs(got)) - np.abs(want)).max() <= 1e-13 * scale
    g2 = even.gradient_squared(u)
    assert np.abs(reflect(even, g2) - full.gradient_squared(reflect(even, u))).max() <= (
        1e-13 * scale**2
    )
    # Parseval on the mirrored modes
    want = full.l2_squared(full.to_spectrum(reflect(even, u)), full.gradient_weights)
    assert close(even.l2_squared(even.to_spectrum(u), even.gradient_weights), want)
    assert close(even.cell_sum(g2), want)


def test_odd_components_come_back_on_the_whole_orthant(grids):
    even, full = grids
    u = even_field(even, 1)
    spec, full_spec = even.to_spectrum(u), full.to_spectrum(reflect(even, u))
    N = even.points_per_dim
    for axis in range(even.dim):
        got = even.to_field(even.grad_symbols[axis] * spec, odd_axis=axis)
        want = full.to_field(full.grad_symbols[axis] * full_spec, odd_axis=axis)
        assert got.shape == even.shape
        # an odd field vanishes at x = 0 and x = L
        assert not np.take(got, [0, -1], axis=axis).any()
        # odd along its axis, even along the others
        sign = np.sign(np.arange(N) - N // 2).reshape((-1,) + (1,) * (even.dim - 1 - axis))
        assert np.abs(sign * reflect(even, got) - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# every sum over cells, on the even grid and on the reflected full grid
# ---------------------------------------------------------------------------

def _pair_of_states(even, full, t):
    u, v = even_field(even, 2), even_field(even, 3)
    return (
        FieldState(even, u, v, t),
        FieldState(full, reflect(even, u), reflect(even, v), t),
    )


def test_norms_match_the_reflected_full_grid(grids):
    even, full = grids
    s_even, s_full = _pair_of_states(even, full, 1.5)
    assert close(even.l2_norm(s_even.u), full.l2_norm(s_full.u))
    # Parseval on the mirrored modes
    for grid, state in ((even, s_even), (full, s_full)):
        assert close(grid.l2_squared(grid.to_spectrum(state.u)), full.l2_norm(s_full.u) ** 2)
    # k * dx lies on the spheres through grid points, where both grids must
    # count the same cells
    for radius in (0.0, 1.0, 2.5, *(k * even.dx for k in (1, 2, 3))):
        assert close(even.exterior_l2(s_even.u, radius), full.exterior_l2(s_full.u, radius))
    assert close(s_even.energy_l2(), s_full.energy_l2())
    got = diagnostics.exterior_energy(s_even, 0.1)
    want = diagnostics.exterior_energy(s_full, 0.1)
    assert not got.region_empty and close(got.value, want.value)


def test_corner_gradient_squared_is_the_gradient_on_the_corner_box(grids):
    even, full = grids
    u = even_field(even, 2)
    spectrum = even.to_spectrum(u)
    want = even.gradient_squared(u)
    n = even.shape[0]
    for points in (1, 3, n // 2, n):
        box = (slice(points),) * even.dim
        got = even.corner_gradient_squared(spectrum, points)
        assert got.shape == (points,) * even.dim
        assert np.abs(got - want[box]).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(ValueError, match="dense"):
        full.corner_gradient_squared(full.to_spectrum(reflect(even, u)), 1)


def test_exterior_energy_by_subtraction_matches_the_reflected_full_grid(grids, monkeypatch):
    # at t = 0.1 the radius 0.1^0.6 = 0.25 leaves most of the energy outside,
    # so the even grid subtracts its corner box from the total, while the
    # full grid sums its exterior cells.  The fields are those of the box of
    # half-length 8, stretched to this one, so that its points resolve them
    even, full = grids
    unit = SpatialGrid(even.dim, 8.0, even.points_per_dim, even=True)
    u, v = even_field(unit, 2), even_field(unit, 3)
    s_even = FieldState(even, u, v, 0.1)
    s_full = FieldState(full, reflect(even, u), reflect(even, v), 0.1)
    want = diagnostics.exterior_energy(s_full, 0.1)

    def refuse(self, field, spectrum=None):
        raise AssertionError("the even grid took the direct sum")

    monkeypatch.setattr(SpatialGrid, "gradient_squared", refuse)
    got = diagnostics.exterior_energy(s_even, 0.1)
    assert not got.region_empty and close(got.value, want.value)


def test_weak_pairing_matches_the_reflected_full_grid(grids):
    even, full = grids
    s_even, s_full = _pair_of_states(even, full, 1.5)
    params = diagnostics.TestFunctionParams(ell=8, eta=7.0, B=2.0, T=4.0, alpha=FracOrder(0.1))
    pairings = diagnostics.WeakPairing(params, even), diagnostics.WeakPairing(params, full)
    for pairing, state in zip(pairings, (s_even, s_full)):
        pairing(0, state, None, None, state.v)
    got, want = pairings
    for name in ("u_cut", "f_cut", "u_lap"):
        assert close(getattr(got, name)[0], getattr(want, name)[0])


@pytest.mark.parametrize("q,sigma", [(2.0, 1.0), (4.0, 0.5)])
def test_gagliardo_ratio_matches_the_reflected_full_grid(grids, q, sigma):
    even, full = grids
    u = even_field(even, 4)
    got = diagnostics.gagliardo_ratio(u, even, 1.0, q, sigma, 3.0)
    want = diagnostics.gagliardo_ratio(reflect(even, u), full, 1.0, q, sigma, 3.0)
    assert close(got, want)


# ---------------------------------------------------------------------------
# runs: the run table, the final state and the blow-up time
# ---------------------------------------------------------------------------

def _table(config):
    observer = cli._RunRows(config, 0.1, full_resolution=True)
    history = stepper.run(config, observers=(observer,))
    return history, observer.rows(history)


def _run_pair(grid, **overrides):
    """The even run and the full-grid run of one scenario."""
    base = dict(gamma=0.9, dt=0.05, **overrides)
    return (
        _table(ScenarioConfig(grid=grid, **base)),
        _table(ScenarioConfig(grid=full_of(grid), **base)),
    )


def _assert_runs_match(grid, mass_floor, **overrides):
    """Every run-table column within 1e-12 relative, ``exterior_mass`` also
    within ``mass_floor`` times ``l2_u``, and the final states within 1e-12
    of their max-norm."""
    (h_even, rows_even), (h_full, rows_full) = _run_pair(grid, **overrides)
    config = h_even.config
    assert (len(stepper._memory_plan(config)[1]) > 0) == (config.n_steps > stepper._BLOCK)
    assert h_even.status == h_full.status
    assert h_full.status.phase is Phase.COMPLETED
    assert len(rows_even) == len(rows_full) == config.n_steps + 1
    for got, want in zip(rows_even, rows_full):
        for column in cli.RUN_COLUMNS:
            floor = mass_floor * want["l2_u"] if column == "exterior_mass" else 0.0
            gap = abs(got[column] - want[column])
            assert close(got[column], want[column]) or gap <= floor, column
    final_even, final_full = h_even.states[-1], h_full.states[-1]
    for name in ("u", "v"):
        want = getattr(final_full, name)
        got = reflect(grid, getattr(final_even, name))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
@pytest.mark.parametrize(
    "dim,points,half_length,support_radius,p,amplitude,t_end",
    [
        # B steps, one block (the direct sum), and 60 steps in blocks
        pytest.param(2, 32, 8.0, 3.0, 2.5, 1.0, stepper._BLOCK * 0.05, id="2-D-direct"),
        pytest.param(2, 32, 8.0, 3.0, 2.5, 1.0, 3.0, id="2-D-blocked"),
        pytest.param(3, 16, 6.0, 2.0, 2.5, 1.0, stepper._BLOCK * 0.05, id="3-D-direct"),
        pytest.param(3, 16, 6.0, 2.0, 2.5, 1.0, 2.5, id="3-D-blocked"),
    ],
)
def test_even_run_matches_the_full_grid_run(
    dim, points, half_length, support_radius, p, amplitude, t_end, nonlinear
):
    # exterior_mass too, also where it is exactly 0 (at t = 0 the data
    # vanish outside the support on both grids)
    _assert_runs_match(
        SpatialGrid(dim, half_length, points, even=True), mass_floor=0.0,
        p=p, support_radius=support_radius, amplitude=amplitude,
        t_end=t_end, nonlinearity_enabled=nonlinear,
    )


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
# B steps, one block, and 40 steps in blocks: the 1-D run of these data
# blows up at t = 2.5
@pytest.mark.parametrize("t_end", [stepper._BLOCK * 0.05, 2.0], ids=["direct", "blocked"])
def test_even_1d_run_matches_the_full_grid_run(t_end, nonlinear):
    # the 1-D exterior mass falls to about 1e-9 of ||u||_2, where the two
    # grids' transform round-off (about 1e-16 of ||u||_2, the floor README
    # documents) shows in its relative digits
    _assert_runs_match(
        SpatialGrid(1, 8.0, 64, even=True), mass_floor=1e-15,
        p=2.5, support_radius=3.0, amplitude=1.0,
        t_end=t_end, nonlinearity_enabled=nonlinear,
    )


def test_even_blow_up_keeps_its_detection_time():
    for grid in (SpatialGrid(1, 8.0, 64, even=True), SpatialGrid(2, 8.0, 32, even=True)):
        (h_even, _), (h_full, _) = _run_pair(
            grid, p=1.5, support_radius=3.0, amplitude=2.0, t_end=25.0
        )
        assert h_full.status.phase is Phase.BLOWUP_DETECTED
        assert h_even.status == h_full.status  # the same phase and the exact t


def test_cli_takes_the_even_grid_in_every_dimension():
    for n in (1, 2, 3):
        grid = cli.parse_config(f"n = {n}\npoints_per_dim = 16\n").scenario.grid
        assert grid.even is True
        assert grid.points_per_dim == 16


def test_custom_orthant_samples_reproduce_the_preset_run():
    # even custom data go on the even grid as their orthant samples
    preset = ScenarioConfig(
        grid=SpatialGrid(2, 8.0, 32, even=True), gamma=0.9, p=2.5,
        support_radius=3.0, amplitude=1.0, dt=0.05, t_end=1.5,
    )
    state0 = stepper.make_initial_data(preset)
    custom = replace(preset, data_shape="custom", custom_data=(state0.u, state0.v))
    h_preset, h_custom = stepper.run(preset), stepper.run(custom)
    assert h_custom.status == h_preset.status
    assert h_custom.records == h_preset.records
    for name in ("u", "v"):
        got, want = getattr(h_custom.states[-1], name), getattr(h_preset.states[-1], name)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the matrix transforms against pocketfft, on both sides of the crossover
# ---------------------------------------------------------------------------

def _odd_field(spectrum: np.ndarray, axis: int) -> np.ndarray:
    """pocketfft's field of a spectrum odd along ``axis``: DST-I on that
    axis's interior modes and points, DCT-I along the others, zero at both
    ends of the odd axis."""
    interior = (slice(None),) * axis + (slice(1, -1),)
    field = np.zeros(spectrum.shape)
    field[interior] = scipy.fft.idst(spectrum[interior], type=1, axis=axis)
    others = [a for a in range(spectrum.ndim) if a != axis]
    return scipy.fft.idctn(field, type=1, axes=others) if others else field


# A matrix product sums n terms per output where pocketfft sums log n
# levels; both stay within a few ulps of the largest output.  Measured on
# the random data below: at most 1.3e-15 of it (6 ulps, at 257^2).  The
# bound allows 40 ulps.
TRANSFORM_RTOL = 40 * np.finfo(float).eps


def _assert_transform(got, want, dense):
    if dense:
        assert np.abs(got - want).max() <= TRANSFORM_RTOL * np.abs(want).max()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", ["at", "above"])
@pytest.mark.parametrize(
    "dim,crossover",
    # the 3-D crossover is moved to 33 points, as 257^3 would need 136 MB
    # per array
    [(1, None), (2, None), (3, 33)],
    ids=["1-D", "2-D", "3-D-at-33"],
)
def test_matrix_transforms_match_pocketfft(monkeypatch, dim, crossover, side):
    if crossover is not None:
        monkeypatch.setattr(spectral, "_DENSE_AXIS", crossover)
    n = spectral._DENSE_AXIS + (side == "above")
    grid = SpatialGrid(dim, 8.0, 2 * (n - 1), even=True)
    dense = side == "at"
    assert grid.shape == (n,) * dim
    assert grid.transform_matrix_bytes == (n * n * 8 if dense else 0)
    assert full_of(grid).transform_matrix_bytes == 0
    u = np.random.default_rng(dim).standard_normal(grid.shape)
    spec = grid.to_spectrum(u)
    _assert_transform(spec, scipy.fft.dctn(u, type=1), dense)
    _assert_transform(grid.to_field(spec), scipy.fft.idctn(spec, type=1), dense)
    total = np.zeros(grid.shape)
    for axis, sym in enumerate(grid.grad_symbols):
        component = grid.to_field(sym * spec, odd_axis=axis)
        want = _odd_field(sym * spec, axis)
        _assert_transform(component, want, dense)
        assert not np.take(component, [0, -1], axis=axis).any()
        total += want**2
    # Parseval, from the path's own spectrum
    assert close(grid.l2_squared(spec), grid.cell_sum(u**2))
    assert close(grid.l2_squared(spec, grid.gradient_weights), grid.cell_sum(total))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dense", [True, False], ids=["matrix", "pocketfft"])
def test_a_non_finite_value_reaches_the_transform(monkeypatch, dense, bad):
    # the step loop's finiteness checks read the fields the transforms
    # return; both paths pass the value on without a warning, which the
    # suite's filterwarnings would turn into an error
    monkeypatch.setattr(spectral, "_DENSE_AXIS", 10**6 if dense else 0)
    for dim in (1, 2, 3):
        grid = SpatialGrid(dim, 8.0, 16, even=True)
        u = even_field(grid, 0)
        for index in ((0,) * dim, (3,) * dim, (grid.shape[0] - 1,) * dim):
            field = u.copy()
            field[index] = bad
            assert not np.isfinite(grid.to_spectrum(field)).all()
            spec = grid.to_spectrum(u)
            spec[index] = bad
            assert not np.isfinite(grid.to_field(spec)).all()
        # an odd axis's end modes drop out (pocketfft never reads them), so
        # the bad value goes into an interior mode
        spec = grid.to_spectrum(u)
        spec[(3,) * dim] = bad
        for axis in range(dim):
            assert not np.isfinite(grid.to_field(spec, odd_axis=axis)).all()


def _path_tables(monkeypatch, grid, **overrides):
    """The run of one scenario with matrix transforms and with pocketfft."""
    config = ScenarioConfig(grid=grid, gamma=0.9, dt=0.05, **overrides)
    tables = []
    for crossover in (10**6, 0):
        monkeypatch.setattr(spectral, "_DENSE_AXIS", crossover)
        tables.append(_table(config))
    return tables


def test_3d_run_takes_the_same_course_on_either_path(monkeypatch):
    # 60 steps in blocks, p = 2.5: every run-table column within 1e-12
    # relative; the exterior mass also within 1e-15 of ||u||_2, the floor
    # where it is only the transforms' round-off
    grid = SpatialGrid(3, 8.0, 32, even=True)
    (h_dense, rows_dense), (h_fft, rows_fft) = _path_tables(
        monkeypatch, grid, p=2.5, support_radius=3.0, amplitude=1.0, t_end=3.0
    )
    assert h_fft.status.phase is Phase.COMPLETED and h_dense.status == h_fft.status
    assert len(rows_dense) == len(rows_fft) == 61
    for got, want in zip(rows_dense, rows_fft):
        for column in cli.RUN_COLUMNS:
            floor = 1e-15 * want["l2_u"] if column == "exterior_mass" else 0.0
            gap = abs(got[column] - want[column])
            assert close(got[column], want[column]) or gap <= floor, column
    for name in ("u", "v"):
        want = getattr(h_fft.states[-1], name)
        got = getattr(h_dense.states[-1], name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_3d_blow_up_keeps_its_detection_time_on_either_path(monkeypatch):
    grid = SpatialGrid(3, 8.0, 32, even=True)
    (h_dense, _), (h_fft, _) = _path_tables(
        monkeypatch, grid, p=1.5, support_radius=3.0, amplitude=2.0, t_end=25.0
    )
    assert h_fft.status.phase is Phase.BLOWUP_DETECTED
    assert h_dense.status == h_fft.status  # the same phase and the exact t
