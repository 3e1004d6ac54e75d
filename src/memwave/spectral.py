"""Linear damped-wave propagator on a periodic box, evaluated mode by mode.

The damped wave operator u_tt + u_t - Laplace(u) diagonalizes in Fourier
space into independent oscillators u'' + u' + |xi|^2 u = f.  Their
fundamental pair is

    k0(t, xi) = exp(-t/2) * cos(t * a(xi))
    k1(t, xi) = exp(-t/2) * sin(t * a(xi)) / a(xi)

with a(xi) = sqrt(|xi|^2 - 1/4) for |xi| > 1/2 and i * sqrt(1/4 - |xi|^2)
otherwise.  Both symbols are real on either branch and continuous across
|xi| = 1/2; the evaluation below never forms the near-cancelling
cosh/sinh differences directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_BRANCH = 0.25  # |xi|^2 at the branch circle
_SERIES_Z = 1e-8  # switch to Taylor when |t^2 (|xi|^2 - 1/4)| is below this
#: Longest stored axis (N/2 + 1 points) that the even grid transforms by
#: matrix products (SpatialGrid._along_axis) instead of real FFTs.  A product
#: costs about 2n flops per point and axis against the FFT's O(log n), but
#: runs as a GEMM in numpy's OpenBLAS, while the FFT path mirrors each line
#: of n points to 2(n - 1).  Measured on a 2-vCPU VM (numpy 2.4.6 with its
#: OpenBLAS 0.3.31 on two threads): median of 22 alternating timings of one
#: to_spectrum + to_field pair on random data, FFT time over matrix time,
#: was 1.6, 0.98 and 0.72 at n = 129, 257 and 321 in 1-D; 1.27, 1.11 and
#: 1.08 at 257^2, 321^2 and 385^2; 4.5 and 6.4 at 33^3 and 65^3.  257 is
#: the longest axis that loses in no dimension.  With OPENBLAS_NUM_THREADS=1
#: the products tie at 257 in 1-D (0.98), lose at 257^2 (0.91) and win at
#: 129^2 (2.0), 193^2 (1.18) and 33^3 (7.5).
_DENSE_AXIS = 257


def _cos_pi(m: np.ndarray, q: int) -> np.ndarray:
    """cos(pi m / q) for integer ``m``, within an ulp.

    The angle is reduced in integers to [0, pi/4], where its cosine or sine
    is taken, so 0 and +-1 come out exact.  np.cos of the whole angle errs
    by up to 3e-16, the rounding of an angle up to 2 pi.  A field's small
    tail is a cancelling sum of matrix entries times its large modes, and
    such entries put the exterior mass of an even 2-D run (32 points)
    1.2e-12 of itself off the full grid's, against 0.2e-12 for pocketfft's
    DCT-I and 0.07e-12 for entries from this reduction.
    """
    m = np.abs(m) % (2 * q)
    m = np.minimum(m, 2 * q - m)  # [0, q]: cos is even and 2 pi periodic
    sign = np.where(2 * m > q, -1.0, 1.0)
    m = np.minimum(m, q - m)  # [0, q/2]: cos(pi - a) = -cos(a)
    sine = 4 * m > q  # cos(a) = sin(pi/2 - a), in units of pi/(4q)
    a = np.pi / (4 * q) * np.where(sine, 2 * q - 4 * m, 4 * m)
    return sign * np.where(sine, np.sin(a), np.cos(a))


def _rows_along(x: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """``mat`` applied along ``axis`` of ``x``: one GEMM (a stack of them
    when axes follow), whose output holds mat's rows along that axis."""
    shape = x.shape
    after = math.prod(shape[axis + 1 :])
    out_shape = shape[:axis] + mat.shape[:1] + shape[axis + 1 :]
    if after == 1:
        return np.matmul(x.reshape(-1, shape[axis]), mat.T).reshape(out_shape)
    return np.matmul(mat, x.reshape(-1, shape[axis], after)).reshape(out_shape)


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic box [-L, L)^dim sampled with N points per dimension.

    Frequencies are xi = (pi / L) * k with integer k, truncated to N modes
    per dimension (real-FFT layout on the last axis).

    ``even=True`` holds fields that are even in every axis (radial ones among
    them) on the N/2 + 1 points 0 <= x <= L of each axis, 2^dim times fewer
    than the full grid's, and transforms them by DCT-I: the real spectrum
    holds the modes k = 0..N/2 of every axis, equal to the full grid's FFT
    times (-1)^k per axis (the grid origin sits at index N/2), so per-mode
    symbols act on it as on the full spectrum.  Axes of at most
    :data:`_DENSE_AXIS` stored points (the CLI's 2-D and 3-D defaults among
    them) take the DCT-I, and the DST-I of an odd axis, as one product per
    axis with a cached n x n matrix in numpy's multithreaded OpenBLAS;
    longer axes take numpy's real FFT of the axis mirrored about both ends,
    and the full grid numpy's rfftn.  Every sum over cells counts a stored
    point once for each full-grid point it stands for.
    ``points_per_dim`` names the full grid either way.
    """

    dim: int
    half_length: float
    points_per_dim: int
    even: bool = False

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0.0 < self.half_length < math.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        if not isinstance(self.points_per_dim, (int, np.integer)):
            raise ValueError(f"points_per_dim must be an integer, got {self.points_per_dim!r}")
        if self.points_per_dim < 4 or self.points_per_dim % 2:
            raise ValueError("points_per_dim must be even and >= 4")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.points_per_dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @cached_property
    def shape(self) -> tuple[int, ...]:
        if self.even:
            return (self.points_per_dim // 2 + 1,) * self.dim
        return (self.points_per_dim,) * self.dim

    @property
    def spectrum_shape(self) -> tuple[int, ...]:
        """Shape of :meth:`to_spectrum`'s output (the last axis halved)."""
        if self.even:
            return self.shape
        return self.shape[:-1] + (self.points_per_dim // 2 + 1,)

    @property
    def spectrum_dtype(self) -> np.dtype:
        """Element type of :meth:`to_spectrum`'s output: real on the even grid."""
        return np.dtype(float if self.even else complex)

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """x_j = (j - N/2) dx on the full grid, k dx for k = 0..N/2 on the even
        grid: mirror-symmetric about the origin bit for bit, so both grids
        put the same points on every sphere |x| = r."""
        N = self.points_per_dim
        return (np.arange(N // 2 + 1) if self.even else np.arange(N) - N // 2) * self.dx

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| on the physical grid."""
        axes = np.meshgrid(*([self.axis_coords] * self.dim), indexing="ij", sparse=True)
        return np.sqrt(sum(a**2 for a in axes))

    @cached_property
    def max_radius(self) -> float:
        """The largest |x| on the grid, at a corner of the box."""
        return float(self.radius.max())

    @cached_property
    def _mirror_counts(self) -> np.ndarray:
        """1, 2, ..., 2, 1: how many points or modes of a full axis each of
        the indices 0..N/2 of a halved axis stands for."""
        pair = np.full(self.points_per_dim // 2 + 1, 2.0)
        pair[0] = pair[-1] = 1.0
        return pair

    @cached_property
    def cell_weights(self) -> np.ndarray:
        """Per stored point of the even grid, the number of full-grid points
        it stands for: 2 per axis whose index lies strictly between 0 and N/2."""
        counts = np.meshgrid(*([self._mirror_counts] * self.dim), indexing="ij", sparse=True)
        return math.prod(counts)

    @cached_property
    def xi_axes(self) -> list[np.ndarray]:
        """Angular frequencies per axis in the rfftn layout (last axis halved),
        every axis halved on the even grid."""
        N, d = self.points_per_dim, self.dx
        half = 2.0 * np.pi * np.fft.rfftfreq(N, d=d)
        if self.even:
            return [half.copy() for _ in range(self.dim)]
        full = 2.0 * np.pi * np.fft.fftfreq(N, d=d)
        return [full.copy() for _ in range(self.dim - 1)] + [half]

    @property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 per mode, made on each call: only :class:`StepCoefficients`
        reads it, once, so a grid does not keep it through a run."""
        axes = np.meshgrid(*self.xi_axes, indexing="ij", sparse=True)
        return sum(a**2 for a in axes)

    @cached_property
    def grad_symbols(self) -> list[np.ndarray]:
        """i*xi per axis, with the Nyquist mode zeroed (odd derivative), each
        shaped to broadcast along its own axis of a spectrum.  On the even
        grid the symbol is -xi, the derivative of the cosine modes taken as
        sine modes (see :meth:`to_field`)."""
        out = []
        nyq = np.pi * self.points_per_dim / (2.0 * self.half_length)
        for axis in range(self.dim):
            comp = np.meshgrid(*self.xi_axes, indexing="ij", sparse=True)[axis]
            sym = -comp if self.even else 1j * comp
            sym[np.isclose(np.abs(comp), nyq)] = 0.0
            out.append(sym)
        return out

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Per-mode w with ||u||^2 = sum(w |u_hat|^2), u_hat = to_spectrum(u).

        Parseval on the stored modes: on a halved axis the unpaired first and
        last planes count once, the others twice, and 1/N^dim undoes the
        unnormalized forward transform.
        """
        counts = self.cell_weights if self.even else self._mirror_counts
        return counts * (self.cell_volume / self.points_per_dim**self.dim)

    @cached_property
    def gradient_weights(self) -> np.ndarray:
        """Per-mode w with ||grad u||^2 = sum(w |u_hat|^2): the Nyquist-zeroed
        symbols of :meth:`gradient` squared times :attr:`parseval_weights`."""
        sym2 = sum(np.abs(sym) ** 2 for sym in self.grad_symbols)
        return sym2 * self.parseval_weights

    @property
    def _dense(self) -> bool:
        """True on an even grid whose stored axes have at most
        :data:`_DENSE_AXIS` points: it transforms by matrix products."""
        return self.even and self.shape[0] <= _DENSE_AXIS

    @property
    def transform_matrix_bytes(self) -> int:
        """Bytes of each of the two n x n matrices the dense transforms cache
        (:attr:`_dct_matrix`, :attr:`_dst_matrix`); 0 on a grid that
        transforms by FFT."""
        return self.shape[0] ** 2 * 8 if self._dense else 0

    @cached_property
    def _dct_matrix(self) -> np.ndarray:
        """DCT-I along a stored axis of n points, pocketfft's unnormalized
        one, as a matrix: 2 cos(pi k j / (n - 1)), with column 0 equal to 1
        and column n - 1 to (-1)^k."""
        n = self.shape[0]
        k = np.arange(n)
        fwd = 2.0 * _cos_pi(np.outer(k, k), n - 1)
        fwd[:, 0] = 1.0
        fwd[:, -1] *= 0.5
        return fwd

    @cached_property
    def _dst_matrix(self) -> np.ndarray:
        """DST-I along an odd stored axis of n points, unnormalized like
        :attr:`_dct_matrix`: 2 sin(pi j k / (n - 1)).  Rows and columns 0 and
        n - 1 are sin(pi k) = 0, exact after the reduction in :func:`_cos_pi`,
        so the end modes drop out and the field vanishes at both ends."""
        n = self.shape[0]
        k = np.arange(n)
        # sin(pi m / q) = cos(pi (2m - q) / (2q))
        return 2.0 * _cos_pi(2 * np.outer(k, k) - (n - 1), 2 * (n - 1))

    def _along_axis(self, x: np.ndarray, axis: int, odd: bool) -> np.ndarray:
        """The DCT-I of ``x`` along ``axis``, or its DST-I when ``odd``.

        A dense grid takes one GEMM (a stack of them on the middle axis of a
        3-D grid).  A longer axis takes the real FFT of the axis mirrored
        about both ends, as pocketfft does: evenly for the DCT-I, whose
        values are the real parts, and oddly with the end points zeroed for
        the DST-I, whose values are minus the imaginary parts (0 - imag, so
        both ends stay +0.0).
        """
        if self._dense:
            return _rows_along(x, self._dst_matrix if odd else self._dct_matrix, axis)
        n = self.shape[0]
        before = (slice(None),) * axis
        mirror = x[before + (slice(-2, 0, -1),)]
        if not odd:
            return np.fft.rfft(np.concatenate([x, mirror], axis=axis), axis=axis).real
        ext = np.concatenate([x, -mirror], axis=axis)
        ext[before + (0,)] = ext[before + (n - 1,)] = 0.0
        return 0.0 - np.fft.rfft(ext, axis=axis).imag

    def _along_axes(
        self, x: np.ndarray, odd_axis: int | None = None, inverse: bool = False
    ) -> np.ndarray:
        """``x`` with the DCT-I applied along every axis, the DST-I along
        ``odd_axis``, which goes first.  ``inverse`` scales by 1/(2(n - 1))
        per axis, once right after the odd axis and once right after the
        first of the others, where pocketfft applies its factors."""
        n = self.shape[0]
        evens = [axis for axis in range(self.dim) if axis != odd_axis]
        for group in [evens] if odd_axis is None else [[odd_axis], evens]:
            for i, axis in enumerate(group):
                x = self._along_axis(x, axis, axis == odd_axis)
                if inverse and i == 0:
                    x *= 1.0 / (2 * (n - 1)) ** len(group)
        return x

    # numpy warns on +-inf in an FFT or a product (inf * 0), where pocketfft
    # stays silent; the step loop's finiteness checks read the results
    def to_spectrum(self, field: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self._along_axes(field) if self.even else np.fft.rfftn(field)

    def to_field(self, spectrum: np.ndarray, odd_axis: int | None = None) -> np.ndarray:
        """The inverse of :meth:`to_spectrum`.

        ``odd_axis`` names an axis along which the field is odd, as a gradient
        component is along its own axis.  On the even grid the interior modes
        1..N/2-1 of that axis are then sine modes (DST-I), and the field comes
        back grid-shaped with zeros at both ends of that axis, x = 0 and x = L,
        where an odd field vanishes; the full grid's spectrum holds every mode
        either way.
        """
        with np.errstate(invalid="ignore"):
            if self.even:
                return self._along_axes(spectrum, odd_axis, inverse=True)
            return np.fft.irfftn(spectrum, s=self.shape, axes=tuple(range(self.dim)))

    def cell_sum(self, values: np.ndarray, where: np.ndarray | None = None) -> float:
        """The integral of the grid-shaped ``values`` over the box: their sum
        over the cells (those of the boolean ``where`` when given), in grid
        order, times the cell volume.

        On the even grid each value is first weighted by the number of
        full-grid cells its point stands for (:attr:`cell_weights`).
        """
        if self.even:
            values = values * self.cell_weights
        if where is not None:
            values = values[where]
        return float(np.sum(values) * self.cell_volume)

    def l2_norm(self, field: np.ndarray) -> float:
        """||field||_2."""
        return math.sqrt(self.cell_sum(np.square(field)))

    def gradient(self, field: np.ndarray) -> list[np.ndarray]:
        """Components of grad(field)."""
        spec = self.to_spectrum(field)
        return [
            self.to_field(sym * spec, odd_axis=axis) for axis, sym in enumerate(self.grad_symbols)
        ]

    def gradient_squared(
        self, field: np.ndarray, spectrum: np.ndarray | None = None
    ) -> np.ndarray:
        """|grad(field)|^2 on the grid, the sum of the squared components of
        :meth:`gradient` in axis order.

        The components are formed one at a time, each freed before the next
        is made, and the sum is kept in the first.  ``spectrum``, when given,
        is the field's spectrum already in hand and saves the forward
        transform.
        """
        spec = self.to_spectrum(field) if spectrum is None else spectrum
        total = None
        for axis, sym in enumerate(self.grad_symbols):
            component = self.to_field(sym * spec, odd_axis=axis)
            np.square(component, out=component)
            total = component if total is None else np.add(total, component, out=total)
        return total

    def corner_gradient_squared(self, spectrum: np.ndarray, points: int) -> np.ndarray:
        """|grad u|^2 on the stored points [0, points)^dim of a grid that
        transforms by matrix products, from u's spectrum.

        These are :meth:`gradient_squared`'s values on that corner box, to
        round-off: each axis takes only the first ``points`` rows of its
        cached inverse matrix, with the 1/(2(n - 1)) scale and, on a
        component's own axis, the Nyquist-zeroed gradient symbol folded into
        the DST-I rows.  So a component costs about points / n of a transform,
        and no spectrum-sized product is formed.
        """
        if not self._dense:
            raise ValueError("corner transforms need an even grid of dense axes")
        scale = 1.0 / (2 * (self.shape[0] - 1))
        even = self._dct_matrix[:points] * scale
        # every axis of the even grid has the same symbol, -xi with xi = 0 at Nyquist
        odd = self._dst_matrix[:points] * (self.grad_symbols[0].reshape(-1) * scale)
        total = None
        for axis in range(self.dim):
            component = spectrum
            for along in range(self.dim):
                component = _rows_along(component, odd if along == axis else even, along)
            np.square(component, out=component)
            total = component if total is None else np.add(total, component, out=total)
        return total

    def l2_squared(self, spectrum: np.ndarray, weights: np.ndarray | None = None) -> float:
        """sum(weights |spectrum|^2): ||u||_2^2 from u's spectrum by Parseval
        with the default :attr:`parseval_weights`, ||grad u||_2^2 with
        :attr:`gradient_weights`."""
        w = self.parseval_weights if weights is None else weights
        return float(np.vdot(spectrum, w * spectrum).real)

    def exterior_l2(self, field: np.ndarray, radius: float) -> float:
        """L2 norm of the field restricted to |x| > radius.

        The squares of the cells outside are gathered and summed in grid
        order; a sum without the gather (masked, or over sorted radial
        shells) adds them in another order and changes the last bits.
        """
        return math.sqrt(self.cell_sum(np.square(field), where=self.radius > radius))


@dataclass(frozen=True, eq=False)
class FieldState:
    """Displacement and velocity samples (u, v = u_t) at one time."""

    grid: SpatialGrid
    u: np.ndarray
    v: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape != self.grid.shape or v.shape != self.grid.shape:
            raise ValueError("field shapes do not match the grid")
        if self.time < 0.0:
            raise ValueError("time must be nonnegative")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("state contains non-finite samples")

    @classmethod
    def _of_checked(cls, grid: SpatialGrid, u: np.ndarray, v: np.ndarray, time: float):
        """A state from float arrays of the grid's shape that the caller has
        already found finite, at a time >= 0: no check is repeated."""
        state = object.__new__(cls)
        for name, value in (("grid", grid), ("u", u), ("v", v), ("time", time)):
            object.__setattr__(state, name, value)
        return state

    def energy_l2(self) -> float:
        """|| (u_t, grad u) ||_2, the total-energy norm."""
        g2 = self.grid.gradient_squared(self.u)
        return math.sqrt(self.grid.cell_sum(self.v**2 + g2))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def k0_hat(t: float, xi_abs2) -> np.ndarray:
    """exp(-t/2) cos(t a); cosh branch written as a sum of decaying exponentials."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    xi2 = np.asarray(xi_abs2, dtype=float)
    a = np.sqrt(np.maximum(xi2 - _BRANCH, 0.0))
    b = np.sqrt(np.maximum(_BRANCH - xi2, 0.0))
    outer = np.exp(-t / 2.0) * np.cos(t * a)
    inner = 0.5 * (np.exp(-t * (0.5 - b)) + np.exp(-t * (0.5 + b)))
    return np.where(xi2 > _BRANCH, outer, inner)


def k1_hat(t: float, xi_abs2) -> np.ndarray:
    """exp(-t/2) sin(t a)/a with the removable zero of a handled by series.

    For |xi| < 1/2 this is exp(-t/2) sinh(t b)/b, evaluated from decaying
    exponentials; near the branch circle (|t a| small) a three-term Taylor
    expansion in z = t^2 (|xi|^2 - 1/4) avoids the 0/0 cancellation.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    xi2 = np.asarray(xi_abs2, dtype=float)
    z = t * t * (xi2 - _BRANCH)
    small = np.abs(z) < _SERIES_Z
    a = np.sqrt(np.maximum(xi2 - _BRANCH, 0.0))
    b = np.sqrt(np.maximum(_BRANCH - xi2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = np.exp(-t / 2.0) * np.sin(t * a) / a
        inner = (np.exp(-t * (0.5 - b)) - np.exp(-t * (0.5 + b))) / (2.0 * b)
    series = np.exp(-t / 2.0) * t * (1.0 - z / 6.0 + z * z / 120.0)
    out = np.where(xi2 > _BRANCH, outer, inner)
    return np.where(small, series, out)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def linear_evolve(state0: FieldState, t: float) -> FieldState:
    """Advance the free (zero forcing) flow by a duration t >= 0.

    Exact per Fourier mode, so the semigroup property holds to round-off and
    t = 0 reproduces the input state.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return state0
    zero = np.zeros(state0.grid.shape)
    return duhamel_step(state0, zero, zero, t)


def _step_matrix(nu: np.ndarray, dt: float) -> np.ndarray:
    """The 2 x 4 per-mode matrix of :class:`StepCoefficients` for |xi|^2 = ``nu``."""
    k0 = k0_hat(dt, nu)
    k1 = k1_hat(dt, nu)
    relax = 1.0 - k0 - 0.5 * k1
    zero = nu == 0.0
    nz = np.where(zero, 1.0, nu)
    # forcing f0 + (f1 - f0) s/dt: the response to f0 plus the response
    # to the slope (f1 - f0)/dt, split onto the two endpoint samples
    slope_u = (dt - k1 - relax / nz) / (nz * dt)
    slope_v = relax / (nz * dt)
    em = np.expm1(-dt)
    wv_start = -em * (1.0 + 1.0 / dt) - 1.0
    wv_end = 1.0 + em / dt
    return np.stack([
        [k0, k1,
         np.where(zero, dt / 2.0 - wv_start, relax / nz - slope_u),
         np.where(zero, dt / 2.0 - wv_end, slope_u)],
        [-0.5 * k0 - (nu - _BRANCH) * k1, k0 - 0.5 * k1,
         np.where(zero, wv_start, k1 - slope_v),
         np.where(zero, wv_end, slope_v)],
    ])


class StepCoefficients:
    """One Duhamel step of fixed size as a real 2x4 matrix per mode.

    The matrix maps (u_hat, mix, f_hat at the step start, f_hat at the step
    end), with mix = u_hat/2 + v_hat, to (u_hat, v_hat) one step later; the
    free-flow columns are (k0, k1) and their time derivatives, so the free
    flow is evaluated exactly as the symbols define it.  The forcing enters
    the velocity equation only; over one step it is interpolated linearly
    between its endpoint samples and the resulting integrals are closed-form
    in the exponential-trigonometric family: ``relax = 1 - k0 - k1/2`` equals
    |xi|^2 * int_0^h k1, so the particular solution needs nothing beyond the
    stable symbol evaluations.  The zero mode (u'' + u' = f) has its own exact
    weights.  All divisions happen here, once; stepping only multiplies and
    adds.
    """

    def __init__(self, grid: SpatialGrid, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.dt = dt
        self.matrix = _step_matrix(grid.xi_squared, dt)

    def rows(self, uh, vh, f0h) -> list[tuple]:
        """Per output row (u_hat, then v_hat): the parts of a step known before
        its end forcing, ``(free flow, start forcing term, end forcing weight)``.

        :meth:`finish` completes a row for one end forcing, so a
        predictor-corrector step forms these products once for both passes.
        """
        mix = 0.5 * uh + vh
        return [(cu * uh + cm * mix, c0 * f0h, c1) for cu, cm, c0, c1 in self.matrix]

    @staticmethod
    def finish(row: tuple, f1h):
        """A row of :meth:`rows` one step later for the end forcing ``f1h``."""
        free, start, weight = row
        return free + (start + weight * f1h)

    def advance(self, uh, vh, f0h, f1h):
        """One step in spectral space; forcing samples at both step endpoints.

        :func:`duhamel_step` calls it; the step loop calls :meth:`rows` and
        :meth:`finish` instead.  perfbench/tracing.py wraps it by name."""
        u_row, v_row = self.rows(uh, vh, f0h)
        return self.finish(u_row, f1h), self.finish(v_row, f1h)


def duhamel_step(
    state: FieldState,
    forcing_start: np.ndarray,
    forcing_end: np.ndarray,
    dt: float,
) -> FieldState:
    """Advance by dt with a forcing interpolated linearly across the step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = state.grid
    coeffs = StepCoefficients(grid, dt)
    uh = grid.to_spectrum(state.u)
    vh = grid.to_spectrum(state.v)
    f0h = grid.to_spectrum(np.asarray(forcing_start, dtype=float))
    f1h = grid.to_spectrum(np.asarray(forcing_end, dtype=float))
    wh, wth = coeffs.advance(uh, vh, f0h, f1h)
    return FieldState(grid, grid.to_field(wh), grid.to_field(wth), state.time + dt)


__all__ = [
    "SpatialGrid",
    "FieldState",
    "k0_hat",
    "k1_hat",
    "linear_evolve",
    "StepCoefficients",
    "duhamel_step",
]
