"""Executable diagnostics: weights, energies, decay fits, inequality tables.

Everything here is read-only over runs: it reads a state, the per-node
records of a :class:`~memwave.stepper.SolutionHistory`, or sums that an
observer (:class:`WeakPairing`) accumulated while the run streamed its
nodes.  One-sided inequalities (the singular-convolution bound, the
weighted interpolation inequality) are reported as ratio tables, never
asserted against a specific constant: the constants in the underlying
estimates are not constructive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frac_ops import (
    CutoffProfile,
    FracOrder,
    TimeGrid,
    TimeSeries,
    cutoff_deriv_closed_form,
    trapezoid_weights,
)
from .spectral import FieldState, SpatialGrid
from .stepper import Phase, SolutionHistory, _quintic_rolloff


# ---------------------------------------------------------------------------
# parabolic weight
# ---------------------------------------------------------------------------

def psi_radial(r, t: float, K: float):
    """Weight (t + K - sqrt((t+K)^2 - r^2)) / 2 for radii r < t + K.

    Vanishes at r = 0, decreases in t at fixed r, and dominates
    r^2 / (4 (t+K)) everywhere in its domain.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if K <= 0.0:
        raise ValueError("K must be positive")
    r_arr = np.asarray(r, dtype=float)
    cone = t + K
    if np.any(r_arr >= cone):
        raise ValueError("radius outside the admissible region |x| < t + K")
    vals = 0.5 * (cone - np.sqrt(cone * cone - r_arr * r_arr))
    return vals if r_arr.ndim else float(vals)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_weight_exponent(n: int, gamma: float) -> float:
    """Exponent j of the weighted energy (1+t)^j ||Du||_2 per dimension."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if n == 1:
        return n / 4.0 - 0.5 + gamma
    if n == 2:
        return gamma - 0.5
    if n == 3:
        return gamma
    raise ValueError(f"n must be 1, 2 or 3, got {n}")


def energy_W_from_norm(t: float, l2_du: float, n: int, gamma: float) -> float:
    """Weighted energy (1 + t)^j ||(u_t, grad u)||_2 from a recorded ||Du||_2."""
    return (1.0 + t) ** energy_weight_exponent(n, gamma) * l2_du


@dataclass(frozen=True)
class ExteriorEnergy:
    value: float
    region_empty: bool


def exterior_energy(
    state: FieldState, delta: float, spectrum: np.ndarray | None = None
) -> ExteriorEnergy:
    """||(u_t, grad u)||_2 restricted to |x| > R = t^(1/2 + delta).

    At t = 0 the restriction radius is zero, so the value covers (essentially)
    the full domain.  An empty discrete region (R at or past the grid's
    largest radius) yields value 0 with a flag.  ``spectrum``, when given, is
    u's spectrum already in hand (a stepping loop has it) and saves the
    forward transform.

    On a grid that transforms by matrix products
    (``SpatialGrid.transform_matrix_bytes > 0``, every 2-D and 3-D CLI
    default) the value is the total energy less the interior's.  The total
    is ||grad u||^2 by Parseval plus the grid sum of v^2.  Every point with
    |x| <= R lies in the stored corner box [0, c)^dim, c = floor(R/dx) + 1,
    where :meth:`~memwave.spectral.SpatialGrid.corner_gradient_squared`
    gives |grad u|^2 from c rows of each axis's inverse matrix.  The
    difference is kept only when 2 * interior <= total: the exterior is then
    at least half the total, so the subtraction loses at most a factor 2 of
    relative precision.  The exterior cells' density is summed directly
    where the interior holds more (a concentrating blow-up profile), where
    the difference is not a number (inf - inf), and on grids that transform
    by FFT (even axes of more than 257 stored points, such as the 1-D
    default's 2049, and the full grid), where the box would cost a whole
    transform per axis.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    grid = state.grid
    radius = state.time ** (0.5 + delta) if state.time > 0.0 else 0.0
    if radius >= grid.max_radius:
        return ExteriorEnergy(0.0, True)
    if spectrum is None:
        spectrum = grid.to_spectrum(state.u)
    if grid.transform_matrix_bytes:
        v = state.v
        total = grid.l2_squared(spectrum, grid.gradient_weights)
        total += grid.cell_volume * float(np.vdot(v, v * grid.cell_weights))
        points = int(np.searchsorted(grid.axis_coords, radius, side="right"))
        box = (slice(points),) * grid.dim
        density = grid.corner_gradient_squared(spectrum, points)
        density += np.square(v[box])
        density *= grid.cell_weights[box]
        interior = grid.cell_volume * float(np.sum(density[grid.radius[box] <= radius]))
        exterior = total - interior
        if interior <= exterior:  # 2 * interior <= total; False on NaN
            return ExteriorEnergy(math.sqrt(exterior), False)
    density = grid.gradient_squared(state.u, spectrum)
    density += np.square(state.v)
    value = math.sqrt(grid.cell_sum(density, where=grid.radius > radius))
    return ExteriorEnergy(value, False)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log(value) against log(1 + t)."""

    exponent: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of y against x, in closed form from
    the centred data.  A line needs no LAPACK solver: np.linalg.lstsq would
    load its code into every simulate and sweep for two numbers."""
    x_mean, y_mean = float(x.mean()), float(y.mean())
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    return slope, y_mean - slope * x_mean


def fit_decay_samples(times, values, window: tuple[float, float]) -> DecayFit:
    """Fit a power law (1+t)^exponent through samples inside the window."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= t_lo) & (times <= t_hi)
    if int(mask.sum()) < 10:
        raise ValueError("need at least 10 samples inside the fit window")
    if np.any(values[mask] <= 0.0):
        raise ValueError(
            "non-positive samples in the fit window (blow-up or zero solution?)"
        )
    x = np.log1p(times[mask])
    y = np.log(values[mask])
    slope, intercept = _line_fit(x, y)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        exponent=slope,
        r_squared=r2,
        window=(t_lo, t_hi),
        n_samples=int(mask.sum()),
    )


# ---------------------------------------------------------------------------
# singular-convolution bound (three-case estimate)
# ---------------------------------------------------------------------------

#: Gauss-Legendre nodes per panel of the singular-convolution quadrature
_GAUSS_NODES = 24


def _panels_from_both_ends(lo: float, hi: float) -> np.ndarray:
    """Panel edges on [lo, hi]: width 1 at both ends, doubling toward the middle."""
    half = 0.5 * (hi - lo)
    widths = 2.0 ** np.arange(64) - 1.0
    widths = widths[widths < half]
    return np.concatenate([lo + widths, [lo + half], (hi - widths)[::-1]])


def _composite_gauss(f, edges: np.ndarray, rule) -> float:
    """Sum of the Gauss rule ``rule`` = (nodes, weights) on [-1, 1] over every
    panel between consecutive ``edges``."""
    x, w = rule
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    rad = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return float(np.sum(rad * w * f(mid + rad * x)))


def _singular_convolution(theta: float, a: float, b: float, t: float, rule) -> float:
    """int_0^t (t-tau)^-theta (1+t-tau)^-a (1+tau)^-b dtau by composite Gauss.

    The endpoint singularity is removed exactly by the substitution
    u = (t - tau)^(1-theta), the identity at theta = 0, whose integrand is
    smooth but for a power of u at u = 0: its panels halve toward 0 over 20
    levels.  For large t the smooth remainder on [0, t-1] is summed on
    panels that grow from width 1 at both ends, where the two factors vary
    on the scale of 1 + tau and 1 + t - tau.
    """
    q = 1.0 / (1.0 - theta)
    split = t - 1.0 if t > 2.0 else 0.0
    total = 0.0
    if split > 0.0:
        total += _composite_gauss(
            lambda tau: (t - tau) ** (-theta)
            * (1.0 + t - tau) ** (-a)
            * (1.0 + tau) ** (-b),
            _panels_from_both_ends(0.0, split),
            rule,
        )

    def desingularized(u):
        s = u**q  # = t - tau
        return (1.0 + s) ** (-a) * (1.0 + t - s) ** (-b)

    top = (t - split) ** (1.0 - theta)
    edges = np.concatenate([[0.0], top * 0.5 ** np.arange(20, -1, -1)])
    return total + q * _composite_gauss(desingularized, edges, rule)


def singular_convolution_case(theta: float, a: float, b: float) -> str:
    """Which branch of the bound applies: 'super', 'log' or 'sub'."""
    m = max(a + theta, b)
    if abs(m - 1.0) < 1e-12:
        return "log"
    return "super" if m > 1.0 else "sub"


def singular_convolution_bound(theta: float, a: float, b: float, t) -> np.ndarray:
    """The bound envelope (constant left out) for the applicable case."""
    t_arr = np.asarray(t, dtype=float)
    case = singular_convolution_case(theta, a, b)
    if case == "super":
        vals = (1.0 + t_arr) ** (-min(a + theta, b))
    elif case == "log":
        vals = (1.0 + t_arr) ** (-min(a + theta, b)) * np.log(2.0 + t_arr)
    else:
        vals = (1.0 + t_arr) ** (1.0 - a - theta - b)
    return vals


@dataclass(frozen=True, eq=False)
class CuiReport:
    """Computed integral against its bound envelope over sampled times.

    ``last_decade_slope`` is the fitted log-log slope of the ratio over the
    final decade of t.  In the 'sub' case the ratio converges to its limiting
    constant from below, so the honest stability statement is a slope that is
    zero to quadrature tolerance rather than per-sample non-increase.
    """

    theta: float
    a: float
    b: float
    case: str
    t_values: np.ndarray
    lhs: np.ndarray
    bound: np.ndarray
    ratios: np.ndarray
    sup_ratio: float
    last_decade_slope: float


def cui_bound_check(theta: float, a: float, b: float, t_samples) -> CuiReport:
    """Quadrature check of the three-case singular-convolution estimate."""
    if not (0.0 <= theta < 1.0):
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    if a < 0.0 or b < 0.0:
        raise ValueError("a and b must be nonnegative")
    t_values = np.asarray(t_samples, dtype=float)
    if np.any(t_values <= 0.0):
        raise ValueError("t samples must be positive")
    # built here, not at import: leggauss calls LAPACK, which simulate and
    # sweep never load
    rule = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    lhs = np.array([_singular_convolution(theta, a, b, t, rule) for t in t_values])
    bound = singular_convolution_bound(theta, a, b, t_values)
    ratios = lhs / bound
    t_max = t_values.max()
    tail = t_values >= t_max / 10.0
    slope = 0.0
    if int(tail.sum()) >= 3:
        x = np.log(t_values[tail])
        y = np.log(ratios[tail])
        slope, _ = _line_fit(x, y)
    return CuiReport(
        theta=theta,
        a=a,
        b=b,
        case=singular_convolution_case(theta, a, b),
        t_values=t_values,
        lhs=lhs,
        bound=bound,
        ratios=ratios,
        sup_ratio=float(ratios.max()),
        last_decade_slope=slope,
    )


# ---------------------------------------------------------------------------
# weighted interpolation (Gagliardo-Nirenberg with exponential weight)
# ---------------------------------------------------------------------------

def gagliardo_ratio(
    u: np.ndarray,
    grid: SpatialGrid,
    t: float,
    q: float,
    sigma: float,
    K: float,
) -> float:
    """||e^(sigma psi) u||_q over its interpolation majorant.

    Majorant: (1+t)^((1-theta)/2) ||grad u||_2^(1-sigma)
    ||e^psi grad u||_2^sigma with theta = n (1/2 - 1/q).  Grid points outside
    the cone |x| < t + K carry no weight (u is assumed supported inside).
    """
    n = grid.dim
    theta = n * (0.5 - 1.0 / q)
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"q={q} gives interpolation index {theta} outside [0, 1]")
    if not (0.0 < sigma <= 1.0):
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    u = np.asarray(u, dtype=float)
    if not np.any(u):
        raise ValueError("u vanishes identically; the majorant is undefined")
    cone = t + K
    inside = grid.radius < cone * (1.0 - 1e-12)
    w = np.zeros(grid.shape)
    w[inside] = psi_radial(grid.radius[inside], t, K)
    num = grid.cell_sum(np.exp(sigma * w * q) * np.abs(u) ** q, where=inside) ** (1.0 / q)
    g2 = grid.gradient_squared(u)
    grad_l2 = math.sqrt(grid.cell_sum(g2))
    grad_weighted = math.sqrt(grid.cell_sum(np.exp(2.0 * w) * g2, where=inside))
    if grad_l2 == 0.0 or grad_weighted == 0.0:
        raise ValueError("gradient vanishes; the majorant is undefined")
    denom = (1.0 + t) ** ((1.0 - theta) / 2.0) * grad_l2 ** (
        1.0 - sigma
    ) * grad_weighted**sigma
    return float(num / denom)


# ---------------------------------------------------------------------------
# weak-solution residual
# ---------------------------------------------------------------------------

def cutoff_profile(r):
    """C^2 monotone quintic cutoff: 1 on [0, 1], 0 on [2, inf)."""
    return _quintic_rolloff(np.asarray(r, dtype=float) - 1.0)


def cutoff_profile_d1(r):
    r_arr = np.asarray(r, dtype=float)
    s = np.clip(r_arr - 1.0, 0.0, 1.0)
    inside = (r_arr > 1.0) & (r_arr < 2.0)
    return np.where(inside, -(30.0 * s**2 - 60.0 * s**3 + 30.0 * s**4), 0.0)


def cutoff_profile_d2(r):
    r_arr = np.asarray(r, dtype=float)
    s = np.clip(r_arr - 1.0, 0.0, 1.0)
    inside = (r_arr > 1.0) & (r_arr < 2.0)
    return np.where(inside, -(60.0 * s - 180.0 * s**2 + 120.0 * s**3), 0.0)


@dataclass(frozen=True)
class TestFunctionParams:
    """Shape of the space-time test function phi1^ell(x) * phi2(t).

    phi1 = cutoff(|x| / B); phi2(t) = (1 - t/T)_+^eta.  ``ell`` must reach
    2 p' + 1 for the nonlinearity exponent in use so that phi1^(ell - 2p')
    stays well defined; ``eta >= 4`` (the bound of
    :class:`~memwave.frac_ops.CutoffProfile`, whose closed-form derivatives
    the profiles take) exceeds alpha + 3 and so keeps the fractional
    derivatives up to total order alpha + 2 vanishing at t = T.
    """

    __test__ = False  # not a pytest class

    ell: int
    eta: float
    B: float
    T: float
    alpha: FracOrder

    def __post_init__(self) -> None:
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
        if self.eta < 4.0:
            raise ValueError("eta must be >= 4")
        if self.B <= 0.0 or self.T <= 0.0:
            raise ValueError("B and T must be positive")

    def validate_for_p(self, p: float) -> None:
        p_prime = p / (p - 1.0)
        if self.ell < 2.0 * p_prime + 1.0:
            raise ValueError(
                f"ell={self.ell} is below 2 p' + 1 = {2.0 * p_prime + 1.0:.3f}"
            )


@dataclass(frozen=True, eq=False)
class TestFunctionProfiles:
    """Temporal factors of the test function and its first two t-derivatives."""

    __test__ = False  # not a pytest class

    grid: TimeGrid
    phi: np.ndarray  # D^alpha_{t|T} phi2
    dphi: np.ndarray  # d/dt of the above  (= -D^(1+alpha))
    d2phi: np.ndarray  # second derivative (= +D^(2+alpha))

    @property
    def endpoint_residuals(self) -> tuple[float, float]:
        """|phi(T)| and |phi_t(T)| relative to their sups over [0, T]."""
        sup0 = float(np.abs(self.phi).max())
        sup1 = float(np.abs(self.dphi).max())
        r0 = abs(float(self.phi[-1])) / sup0 if sup0 > 0 else 0.0
        r1 = abs(float(self.dphi[-1])) / sup1 if sup1 > 0 else 0.0
        return r0, r1


def time_cutoff_profiles(
    params: TestFunctionParams, grid: TimeGrid
) -> TestFunctionProfiles:
    """Fractional-derivative time profiles of the cutoff test function, in
    closed form (:func:`~memwave.frac_ops.cutoff_deriv_closed_form`) on the
    grid's nodes."""
    if abs(grid.horizon - params.T) > 1e-9 * params.T:
        raise ValueError("time grid must end exactly at the horizon T")
    phi2 = CutoffProfile(params.eta, params.T)
    # the last node may lie past T by round-off, where every profile is 0
    t = np.minimum(grid.times, params.T)
    d0, d1, d2 = (cutoff_deriv_closed_form(phi2, params.alpha, k, t) for k in range(3))
    return TestFunctionProfiles(grid, d0, -d1, d2)


def _radial_laplacian_of_power(grid: SpatialGrid, B: float, ell: int) -> np.ndarray:
    """Laplacian of cutoff(|x|/B)^ell, exact from the chain rule."""
    r = grid.radius
    s = r / B
    ph = cutoff_profile(s)
    d1 = cutoff_profile_d1(s) / B
    d2 = cutoff_profile_d2(s) / (B * B)
    radial2 = ell * (ell - 1) * ph ** (ell - 2) * d1**2 + ell * ph ** (ell - 1) * d2
    if grid.dim == 1:
        return radial2
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = np.where(r > 0.0, (grid.dim - 1) / r, 0.0)
    return radial2 + curv * ell * ph ** (ell - 1) * d1


class WeakPairing:
    """Observer of :func:`memwave.stepper.run` that pairs each node with the cutoff.

    Per node it accumulates the grid sums u_cut = <u, phi1^ell>,
    f_cut = <f, phi1^ell> (0 with the nonlinearity disabled) and
    u_lap = <u, Laplace(phi1^ell)>, which is all :func:`weak_residual` needs
    from the fields.
    """

    def __init__(self, params: TestFunctionParams, grid: SpatialGrid):
        self.params = params
        self.grid = grid
        self.space_cut = cutoff_profile(grid.radius / params.B) ** params.ell
        self.lap_cut = _radial_laplacian_of_power(grid, params.B, params.ell)
        self.u_cut: list[float] = []
        self.f_cut: list[float] = []
        self.u_lap: list[float] = []

    def __call__(self, node, state, uh, g, forcing) -> None:
        cell_sum = self.grid.cell_sum
        self.u_cut.append(cell_sum(state.u * self.space_cut))
        self.u_lap.append(cell_sum(state.u * self.lap_cut))
        self.f_cut.append(0.0 if forcing is None else cell_sum(forcing * self.space_cut))


def weak_residual(
    history: SolutionHistory,
    pairing: WeakPairing,
    p: float,
    gamma: float,
) -> float:
    """|LHS - RHS| of the distributional identity against the cutoff pairing.

    ``pairing`` observed the run that produced ``history`` and carries the
    test-function parameters, whose horizon T must be a node of the run's
    time grid: the test function lives on that grid's nodes up to T.  Both
    sides are discretized with trapezoid weights in time and plain grid sums
    in space; for a mild solution the residual vanishes under joint
    refinement of (dt, dx).
    """
    params = pairing.params
    params.validate_for_p(p)
    config = history.config
    if abs(config.gamma - gamma) > 1e-12:
        raise ValueError("gamma does not match the history")
    if history.status.phase is not Phase.COMPLETED and (
        history.records[-1].t < params.T
    ):
        raise ValueError(
            f"history was truncated ({history.status.phase.value}) before the horizon"
        )
    tgrid = config.time_grid.prefix(params.T)
    n_nodes = tgrid.n_nodes
    if len(pairing.u_cut) < n_nodes:
        raise ValueError("the pairing did not observe the run up to the horizon T")

    profiles = time_cutoff_profiles(params, tgrid)
    cell_sum = pairing.grid.cell_sum
    space_cut = pairing.space_cut
    u_cut = np.array(pairing.u_cut[:n_nodes])
    f_cut = np.array(pairing.f_cut[:n_nodes])
    u_lap = np.array(pairing.u_lap[:n_nodes])

    w = trapezoid_weights(tgrid)
    u0 = history.states[0].u
    u1 = history.states[0].v
    lhs = (
        float(np.dot(w, f_cut * profiles.phi))
        + cell_sum(u1 * space_cut) * profiles.phi[0]
        + cell_sum(u0 * space_cut) * (profiles.phi[0] - profiles.dphi[0])
    )
    rhs = (
        float(np.dot(w, u_cut * profiles.d2phi))
        - float(np.dot(w, u_cut * profiles.dphi))
        - float(np.dot(w, u_lap * profiles.phi))
    )
    return abs(lhs - rhs)


__all__ = [
    "psi_radial",
    "energy_weight_exponent",
    "energy_W_from_norm",
    "ExteriorEnergy",
    "exterior_energy",
    "DecayFit",
    "fit_decay_samples",
    "CuiReport",
    "cui_bound_check",
    "singular_convolution_case",
    "singular_convolution_bound",
    "gagliardo_ratio",
    "cutoff_profile",
    "cutoff_profile_d1",
    "cutoff_profile_d2",
    "TestFunctionParams",
    "TestFunctionProfiles",
    "time_cutoff_profiles",
    "WeakPairing",
    "weak_residual",
]
