"""Nonlinear mild-solution integrator for the memory-forced damped wave equation.

Advances u_tt - Laplace(u) + u_t = int_0^t (t-s)^(-gamma) |u(s)|^p ds by a
stepwise Duhamel update: the linear flow is exact per Fourier mode, the
memory forcing comes from product-integration weights, and the implicit
endpoint forcing is resolved by a single predictor-corrector pass.

A run of M steps on N points sums the memory in blocks of B = 8 steps:
exact weights within the block, and the history before it carried by Q
exponentials fitted to (t-s)^(-gamma) on [dt, M dt] to 1e-9 relative
(:func:`~memwave.frac_ops.exponential_sum`, a trapezoid rule whose slow
terms become a Gauss rule: Q = 23 for M = 200 and 30 for M = 3471), well
inside the forcing's 1e-8 budget.  The block's rows past the newest sample
hold the history parts of its later nodes.  That costs O(M (B + Q) N) time
and (Q + B + 1) N doubles of memory (32 rows of N at Q = 23) instead of
O(M^2 N) and (M + 1) N.  A run of at
most B steps is one block of M steps with Q = 0: no exponentials and a
history part of zeros.

A step applies one precomputed per-mode propagator
(:class:`~memwave.spectral.StepCoefficients`), whose free-flow and
start-forcing products are formed once for both passes, and costs six
transforms in any dimension: the known part of the memory sum, the
predicted u and its |u|^p, the new u and v, and the new |u|^p sample; a
linear step, the same one with the forcing held at zero, costs two.  They
are FFTs on the full grid and DCT-Is on the even one, where an axis of at
most 257 stored points (``spectral._DENSE_AXIS``, every 2-D and 3-D CLI
default) takes each transform as one matrix product per axis in numpy's
OpenBLAS, and a longer one (the 1-D default's 2049) as numpy's real FFT
of the axis mirrored about both ends.  The records take ||u||_2,
||grad u||_2, ||u_t||_2 and ||f||_2 from the step's spectra by Parseval, so
the only other transforms are observers'.  The CLI's run table takes each
row's exterior energy on the matrix-transform grids as the total less a
corner box, whose gradient costs a fraction of a transform; on FFT grids,
and where the interior holds most of the energy, it takes one inverse
transform per gradient component.

:func:`run` keeps per-node norms only.  Whatever else a consumer needs from
the nodes (CSV rows, weak-form pairings) it accumulates as an observer that
:func:`run` calls once per node, so a run holds the memory sum's arrays and
O(N) working arrays, never a history of fields.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .frac_ops import TimeGrid, exponential_hat_moments, exponential_sum, product_weights
from .spectral import FieldState, SpatialGrid, StepCoefficients

DATA_SHAPES = ("gaussian_bump", "plateau", "custom")

#: width of the Gaussian core relative to the support radius; keeps the
#: analytic tail at the support edge below 1e-10 of the peak.
_CORE_WIDTH_FRACTION = 1.0 / 7.0

#: Share of ||u||_2 a resolved run keeps outside the ball of radius t +
#: support_radius (the support spreads at unit speed; the rest is ringing).
EXTERIOR_MASS_BUDGET = 1e-8


class Phase(enum.Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    BLOWUP_DETECTED = "blowup_detected"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class RunStatus:
    """Terminal state of a run; blow-up carries its detection time."""

    phase: Phase
    t: float | None = None
    reason: str | None = None

    @classmethod
    def running(cls) -> "RunStatus":
        return cls(Phase.RUNNING)

    @classmethod
    def completed(cls) -> "RunStatus":
        return cls(Phase.COMPLETED)

    @classmethod
    def blow_up(cls, t: float) -> "RunStatus":
        return cls(Phase.BLOWUP_DETECTED, t=t)

    @classmethod
    def failure(cls, t: float, reason: str) -> "RunStatus":
        return cls(Phase.NUMERICAL_FAILURE, t=t, reason=reason)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete problem setup for one run.

    ``amplitude`` (non-negative) scales the preset shapes so that
    ||u0||_H1 + ||u1||_2 equals it, and leaves ``custom_data`` as given;
    ``support_radius`` bounds the data support, which then propagates inside
    the ball of radius t + support_radius.
    ``nonlinearity_enabled=False`` runs the plain linear flow through the
    same step with the forcing held at zero.  Every real field must be
    finite, and ``custom_data`` is given exactly when ``data_shape`` is
    ``"custom"``.

    ``dt`` and ``t_end`` request the step and the horizon; a run steps on
    :attr:`time_grid`, the one source of its step, nodes and horizon.
    """

    grid: SpatialGrid
    gamma: float
    p: float
    support_radius: float
    amplitude: float
    dt: float
    t_end: float
    data_shape: str = "gaussian_bump"
    blowup_threshold: float = 1e6
    nonlinearity_enabled: bool = True
    custom_data: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        reals = ("gamma", "p", "support_radius", "amplitude", "dt", "t_end", "blowup_threshold")
        for name in reals:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.p <= 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.support_radius <= 0.0:
            raise ValueError("support_radius must be positive")
        if self.support_radius >= self.grid.half_length:
            raise ValueError(
                "data support must fit inside the box: "
                f"support_radius={self.support_radius} >= "
                f"half_length={self.grid.half_length}"
            )
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be non-negative, got {self.amplitude}")
        if self.dt <= 0.0 or self.dt >= self.t_end:
            raise ValueError("need 0 < dt < t_end")
        if self.blowup_threshold <= 1.0:
            raise ValueError("blowup_threshold must exceed 1")
        if self.data_shape not in DATA_SHAPES:
            raise ValueError(
                f"unknown data_shape {self.data_shape!r}; options: {DATA_SHAPES}"
            )
        if (self.data_shape == "custom") != (self.custom_data is not None):
            raise ValueError("custom_data must be given exactly when data_shape is 'custom'")

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def time_grid(self) -> TimeGrid:
        """The run's nodes: round(t_end / dt) steps of dt, so the last node
        lies within dt/2 of t_end, before or after it."""
        return TimeGrid(self.dt, round(self.t_end / self.dt))

    @property
    def n_steps(self) -> int:
        return self.time_grid.n_steps


def default_dt(grid: SpatialGrid) -> float:
    """Forcing-resolution default: the symbols impose no CFL constraint."""
    return min(0.25, 0.5 * grid.dx)


def suggested_half_length(support_radius: float, t_end: float) -> float:
    """Box size for which the support ball never wraps: K + t_end plus a 10%
    margin on the horizon."""
    return support_radius + 1.1 * t_end


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Per-node norms: t, ||u||_2, ||u||_H1, ||Du||_2, ||f||_2, exterior mass."""

    t: float
    l2_u: float
    h1_u: float
    l2_du: float
    forcing_l2: float
    exterior_mass: float

    @property
    def l2_ut(self) -> float:
        """||u_t||_2, recovered from ||Du||^2 - ||grad u||^2."""
        return math.sqrt(max(self.l2_du**2 - self.h1_u**2 + self.l2_u**2, 0.0))

    @property
    def blowup_functional(self) -> float:
        """||u||_H1 + ||u_t||_2, the quantity that diverges at a blow-up."""
        return self.h1_u + self.l2_ut


@dataclass(eq=False)
class SolutionHistory:
    """Per-node records, terminal status, and the initial and final states of a run.

    ``records[m]`` holds the norms at node m; after a blow-up is detected
    nothing further is appended.  ``states`` is ``[initial, final]`` once the
    run returns (the same state twice when no step was kept).  Fields at the
    other nodes are not stored: observers of :func:`run` see them as they are
    made.
    """

    config: ScenarioConfig
    states: list[FieldState] = field(default_factory=list)
    records: list[StepRecord] = field(default_factory=list)
    status: RunStatus = field(default_factory=RunStatus.running)

    #: per-node |u|^p and forcing samples are not kept (observers receive
    #: them); the names stay readable and are always None, since
    #: perfbench/tracing.py reads them to count a run's history bytes
    nonlinearity_record = None
    forcing_record = None

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def record_array(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _quintic_rolloff(s) -> np.ndarray:
    """C^2 monotone step 1 - (10 s^3 - 15 s^4 + 6 s^5) of s clipped to [0, 1]:
    1 for s <= 0, 0 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - (10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5)


def _support_rolloff(r: np.ndarray, radius: float) -> np.ndarray:
    """C^2 quintic rolloff: 1 below 0.8*radius, exactly 0 beyond 0.95*radius."""
    return _quintic_rolloff((r - 0.8 * radius) / (0.15 * radius))


def _bump_profile(r: np.ndarray, radius: float, shape: str) -> np.ndarray:
    """The preset profile ``shape`` of support ``radius`` at the radii ``r``."""
    w = _CORE_WIDTH_FRACTION * radius
    if shape == "gaussian_bump":
        core = np.exp(-(r**2) / (2.0 * w * w))
    elif shape == "plateau":
        erfc = np.vectorize(math.erfc, otypes=[float])
        core = 0.5 * erfc((r - 0.5 * radius) / (math.sqrt(2.0) * 0.5 * w))
    else:  # pragma: no cover - guarded by config validation
        raise ValueError(f"no profile for shape {shape!r}")
    return core * _support_rolloff(r, radius)


def make_initial_data(config: ScenarioConfig) -> FieldState:
    """Data supported in the ball of ``support_radius``, scaled to the amplitude.

    The preset profiles are strictly positive inside their support, so both
    components have positive mean; the scale is chosen so that
    ||u0||_H1 + ||u1||_2 equals ``amplitude`` exactly (zero amplitude gives
    the zero state).  ``custom_data`` is taken as given: ``amplitude`` does
    not scale it.

    The core width is support_radius / 7.  For the spectral support ringing
    to stay below :data:`EXTERIOR_MASS_BUDGET`, support_radius / dx must
    reach about 13 for ``gaussian_bump`` and 21 for ``plateau``, that is
    points_per_dim >= ~26 and ~43 times half_length / support_radius
    (measured on linear even-grid runs at gamma = 0.9, support_radius = 4,
    half_length = 59: the largest exterior mass over the run, relative to
    ||u||_2, falls below the budget between support_radius / dx = 10.8 and
    13.0 for the bump in 1-D and 2-D, and between 17.4 and 21.7 for the
    plateau in 1-D).
    """
    grid = config.grid
    if config.data_shape == "custom":
        u0, u1 = config.custom_data
        u0 = np.asarray(u0, dtype=float)
        u1 = np.asarray(u1, dtype=float)
        if u0.shape != grid.shape or u1.shape != grid.shape:
            raise ValueError("custom data shapes do not match the grid")
        return FieldState(grid, u0, u1, 0.0)
    profile = _bump_profile(grid.radius, config.support_radius, config.data_shape)
    l2 = grid.l2_norm(profile)
    grad2 = sum(grid.l2_norm(c) ** 2 for c in grid.gradient(profile))
    h1 = math.sqrt(l2**2 + grad2)
    scale = config.amplitude / (h1 + l2)
    data = scale * profile
    return FieldState(grid, data, data.copy(), 0.0)


# ---------------------------------------------------------------------------
# memory forcing
# ---------------------------------------------------------------------------

class MemoryConvolution:
    """Incremental evaluation of int_0^t (t-s)^(-gamma) g(s) ds on the grid.

    Product-integration weights for the kernel of order alpha = 1 - gamma are
    precomputed once; ``known_part`` accumulates every contribution available
    before the newest sample, whose weight is ``tail_weight``.
    """

    def __init__(self, gamma: float, dt: float, n_steps: int):
        alpha = 1.0 - gamma
        self.scale = dt**alpha
        self.first, self.conv = product_weights(alpha, n_steps)
        self.tail_weight = self.scale * self.conv[0]

    def known_part(self, samples: np.ndarray, m_next: int) -> np.ndarray:
        """Weighted sum over samples 0..m_next-1 of the node-m_next integral."""
        acc = self.first[m_next] * samples[0]
        if m_next >= 2:
            w = self.conv[m_next - 1 : 0 : -1]
            rows = samples[1:m_next]
            acc += np.dot(w, rows.reshape(len(rows), -1)).reshape(acc.shape)
        return self.scale * acc

    def value_at(self, samples: np.ndarray, m: int) -> np.ndarray:
        """The node-m integral from every sample up to m, by the direct sum.

        :func:`run` never calls it; it is the oracle that the tests hold the
        loop's forcing to."""
        if m == 0:
            return np.zeros_like(samples[0])
        return self.known_part(samples, m) + self.tail_weight * samples[m]


def _power_p(u: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """|u|^p into ``out`` (``u`` itself allowed; a new array when not given).
    NaN stays NaN, so a broken step reaches the run's finiteness checks."""
    absu = np.abs(u, out=out)
    return np.power(absu, p, out=absu)


# ---------------------------------------------------------------------------
# blow-up detection and stepping
# ---------------------------------------------------------------------------

def detect_blowup(record: StepRecord, initial: StepRecord, threshold: float) -> bool:
    """True when ||u||_H1 + ||u_t||_2 reaches threshold times its initial value.

    Non-finite norms trigger detection regardless of the threshold; the
    comparison is closed (equality counts as detected).
    """
    value = record.blowup_functional
    if not math.isfinite(value):
        return True
    base = initial.blowup_functional
    if base == 0.0:
        return False  # zero data stays zero; only non-finite values count
    return value >= threshold * base


def _make_record(
    config: ScenarioConfig, state: FieldState, uh: np.ndarray, vh: np.ndarray, fh: np.ndarray
) -> StepRecord:
    """Norms of ``state`` and of the forcing at its node, by Parseval from
    the spectra ``uh``, ``vh`` and ``fh`` of u, v and the forcing; only the
    exterior mass is summed over the physical grid.  A forcing whose
    spectrum squares past the float range takes its norm from the spectrum
    scaled by its largest modulus, which is inf only if the norm is."""
    grid = config.grid
    l2_u2 = grid.l2_squared(uh)
    grad2 = grid.l2_squared(uh, grid.gradient_weights)
    forcing_l2 = math.sqrt(grid.l2_squared(fh))
    if not math.isfinite(forcing_l2):
        scale = float(np.max(np.abs(fh)))
        forcing_l2 = scale * math.sqrt(grid.l2_squared(fh / scale))
    return StepRecord(
        t=state.time,
        l2_u=math.sqrt(l2_u2),
        h1_u=math.sqrt(l2_u2 + grad2),
        l2_du=math.sqrt(grid.l2_squared(vh) + grad2),
        forcing_l2=forcing_l2,
        exterior_mass=grid.exterior_l2(state.u, state.time + config.support_radius),
    )


#: An observer of :func:`run`, called once per node as
#: ``observer(node, state, u_hat, g, forcing)``: the node index, the
#: FieldState, u's spectrum, the |u|^p sample and the memory forcing at the
#: node (both None when the nonlinearity is disabled; the forcing is zero at
#: node 0).  Observers must not modify the arrays they are given.  The state
#: may be kept; u_hat, g and the forcing are valid only during the call, so
#: an observer copies what it keeps of them: g is a row of the memory sum's
#: block, which the block end and later steps rewrite.
Observer = Callable[[int, FieldState, np.ndarray, np.ndarray | None, np.ndarray | None], None]

#: Steps per block of the blocked memory sum.  The sum holds B + 1 + Q rows
#: of N doubles, and each block end folds B samples into the Q modes, so a
#: shorter block holds fewer rows and folds more often.  Measured at Q = 29
#: and 36, before the exponential sum's Gauss rule (Q is now 23 and 30, six
#: rows fewer at every B): rows, spectral_3d's peak RSS (perfbench,
#: --trace 0, 3 runs) and the median seconds of 8 runs of ``run`` without
#: observers, alternating block sizes in one process, for spectral_3d (64^3,
#: 200 steps) and memory_1d (4096 points, 3471 steps), on a 2-vCPU VM:
#:
#:   B    rows (Q=29/36)   peak RSS   spectral_3d   memory_1d
#:   4        34/41        51.8 MiB     1.03 s       2.40 s
#:   8        38/45        52.9 MiB     0.95 s       2.02 s
#:   16       46/53        55.1 MiB     0.93 s       2.25 s
#:   32       62/69        59.9 MiB     0.91 s       2.42 s
#:
#: 8 takes 7 MiB off spectral_3d's peak for about 5 % of its step loop;
#: 4 would save 1.1 MiB more for another 8 %.  At 193^3 stored points
#: blocks of 8 hold 1.3 GiB less than blocks of 32.
_BLOCK = 8


def _memory_plan(config: ScenarioConfig) -> tuple[int, np.ndarray, np.ndarray]:
    """Steps per block of the memory sum, and the rates and weights of the
    Q exponentials that carry the history before a block.

    A run of M steps takes blocks of min(M, B) steps.  When it is longer
    than one block the exponentials are fitted on [dt, horizon] of
    ``config.time_grid`` (:func:`~memwave.frac_ops.exponential_sum`: Q = 23
    at M = 200 and 30 at M = 3471, one fewer at gamma = 0.001); a run of at
    most B steps has Q = 0.
    """
    time = config.time_grid
    if time.n_steps <= _BLOCK:
        return time.n_steps, np.empty(0), np.empty(0)
    return (_BLOCK, *exponential_sum(config.gamma, time.dt, time.horizon))


#: Arrays a run holds at its peak besides the memory sum's, in three kinds.
#: Fields and spectra: the kept states, u's, v's and the forcing's spectra,
#: the known part, the propagator's four row products, the grid's cached
#: geometry and the products and transforms' outputs in flight in a step,
#: fewer in a linear step, which has no known part, predictor or |u|^p
#: sample.  Real per-mode arrays: the step matrix and the temporaries that
#: build it, |xi|^2 among them, and the Parseval weights, half a field each
#: on the full grid (its last axis is halved) and a whole one on the even
#: grid.  The n x n matrices of the even grid's matrix transforms: the two it caches and
#: the temporaries that build the second (7.1 matrices at the peak for n =
#: 257).  The counts, 13 fields with the nonlinearity on and 11 with it
#: off, 30 per-mode arrays and 8 matrices, are the integers that exceed
#: tracemalloc's peak by 8 % or more in every run of
#: test_memory_estimate_bounds_traced_peak (full 1-, 2- and 3-D grids of
#: 1024 to 32768 points and even ones of 257 to 35937 stored points, in one
#: block and in many, with the nonlinearity on and off) and overshoot it
#: least: none of them can be lowered by one while the others stay, and the
#: estimate comes to 1.08-1.61 times the peak.  (Other sets are as tight,
#: trading fields for per-mode arrays; this one keeps the other three.)
_WORKING_ARRAYS = 13
_LINEAR_WORKING_ARRAYS = 11
_MODE_ARRAYS = 30
_MATRIX_ARRAYS = 8
#: bytes per node outside the arrays (a StepRecord, product weights) and
#: bytes independent of the grid and the step count (numpy's ufunc buffers
#: among them), fitted with the counts above.  The CLI's run tables stay
#: within it: a row is a view over its record plus 16 bytes (its node and
#: exterior energy), and tracemalloc's peak of a full-resolution 1-D
#: `simulate` grows by about 250 bytes per node
#: (test_full_resolution_simulate_holds_node_bytes_per_node in test_cli)
_NODE_BYTES = 400
_FIXED_BYTES = 64 * 1024


def memory_estimate(config: ScenarioConfig) -> int:
    """Bytes a run of ``config`` needs at its peak, an upper bound.

    A nonlinear run keeps one block of B + 1 samples, whose rows hold the
    history parts of the block's nodes until their samples arrive, and the
    Q exponential histories: (Q + B + 1) * N doubles, N the points the grid
    stores, plus two Q x (B + 1) weight matrices (Q = 0 and B = M for a run
    of M <= B steps) and, at each block end, a scratch tile of
    B x min(N, 4096) doubles.  Everything else is O(N) working
    arrays, the n x n matrices of an even grid's matrix transforms (n points
    per stored axis) and a few hundred bytes of records per node.  What
    observers keep is their own and not included.
    """
    return _estimate(config, _memory_plan(config) if config.nonlinearity_enabled else None)


def _estimate(config: ScenarioConfig, plan: tuple[int, np.ndarray, np.ndarray] | None) -> int:
    """:func:`memory_estimate` of a run whose memory sum takes ``plan``,
    from :func:`_memory_plan`, or None with the nonlinearity off."""
    grid = config.grid
    points = math.prod(grid.shape)
    modes = math.prod(grid.spectrum_shape)
    nodes = config.time_grid.n_nodes
    memory, fields = 0, _LINEAR_WORKING_ARRAYS
    if plan is not None:
        block, rates, _ = plan
        terms = len(rates)
        tile = block * min(points, _FOLD_TILE)
        memory = ((terms + block + 1) * points + tile + 2 * terms * (block + 1)) * 8
        fields = _WORKING_ARRAYS
    array = max(points * 8, modes * grid.spectrum_dtype.itemsize)
    working = (
        fields * array + _MODE_ARRAYS * modes * 8
        + _MATRIX_ARRAYS * grid.transform_matrix_bytes
    )
    return memory + working + nodes * _NODE_BYTES + _FIXED_BYTES


#: Columns of the fold's scratch: B x 4096 doubles (256 KiB at B = 8), made
#: at each fold, hold one tile of a chunk's product at a time.  At 33^3
#: stored points the tiled fold takes 2.9 ms where one product across all
#: points takes 3.3 ms, to the same bits (Q = 34; 2.3 and 2.7 ms at Q = 29;
#: medians of 15 x 20 folds on a 2-vCPU VM)
_FOLD_TILE = 4096


def _fold_block(
    modes: np.ndarray,
    decay: np.ndarray,
    moments: np.ndarray,
    samples: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Fold a finished block into the exponential modes in place:
    ``modes = decay * modes + moments @ samples``.

    The product is formed in ``scratch``, in chunks of at most
    ``len(scratch)`` modes and in tiles of nearly equal width, at most
    ``scratch.shape[1]`` points, so the fold allocates no Q x N array.
    OpenBLAS's matrix product sums each element's B + 1 terms in one order
    in any tile, so the bits do not depend on the width.  A chunk of one
    mode, or a tile of one point, would be a matrix-vector product, whose
    order follows the tile's offset: no tile is one point wide, and a
    one-mode chunk is formed across all points at once.

    The fold goes through numpy's BLAS like every other product, so a run
    loads one BLAS; the tests keep scipy's ``dgemm`` as the fold's oracle.
    """
    modes *= decay
    rows, width = scratch.shape
    points = samples.shape[1]
    tiles = -(-points // width)
    edges = [points * i // tiles for i in range(tiles + 1)]
    for q in range(0, len(modes), rows):
        chunk = moments[q : q + rows]
        if len(chunk) == 1:
            modes[q] += np.matmul(chunk, samples)[0]
            continue
        for lo, hi in zip(edges, edges[1:]):
            out = scratch[: len(chunk), : hi - lo]
            modes[q : q + rows, lo:hi] += np.matmul(chunk, samples[:, lo:hi], out=out)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


#: A step that produces non-finite values is a blow-up only when the last
#: record's blow-up functional had already grown by threshold ** _ONSET_POWER
#: over its initial value, i.e. half way to the detection threshold in
#: decades (1e3 at the default threshold 1e6); otherwise the run stops with a
#: numerical failure.
_ONSET_POWER = 0.5


def _non_finite_status(
    config: ScenarioConfig, last: StepRecord, initial: StepRecord, t: float, what: str
) -> RunStatus:
    """Status of a run whose step to ``t`` made ``what`` non-finite."""
    if detect_blowup(last, initial, config.blowup_threshold**_ONSET_POWER):
        return RunStatus.blow_up(t)
    return RunStatus.failure(t, f"non-finite {what} before the blow-up functional grew")


def run(config: ScenarioConfig, observers: Iterable[Observer] = ()) -> SolutionHistory:
    """Integrate the scenario to the last node of its time grid, a detected
    blow-up, or a failure.

    Each step applies the exact one-step flow with the forcing interpolated
    linearly between its endpoint values; the endpoint value at the new node
    is implicit in |u|^p and is resolved by one predictor (newest nonlinearity
    sample frozen) and one corrector pass.  The forcing is linear in the
    samples, so its spectra are sums of the known part's spectrum and single
    samples' spectra.

    The memory sum restarts every B steps (see :func:`_memory_plan`): within
    a block the product-integration weights act on the block's samples, and
    the history before the block enters through Q exponential modes
    H_q = int_0^{t_b} e^(-s_q (t_b - s)) g(s) ds, folded forward at each block
    end.  At node b + k that history contributes sum_q w_q e^(-s_q k dt) H_q,
    which the block end writes into row k of the block, k = 1 .. B: step k
    reads it there before the new sample overwrites it.

    Non-finite values stop the run as a blow-up or as a numerical failure
    (see :data:`_ONSET_POWER`).  Every ``observer`` is called once per
    recorded node, in node order (see :data:`Observer`).  Raises ValueError,
    before allocating anything, when :func:`memory_estimate` exceeds the
    machine's physical memory.
    """
    nonlinear = config.nonlinearity_enabled
    # the exponential sum is fitted once, for the estimate and the memory sum
    plan = _memory_plan(config) if nonlinear else None
    needed = _estimate(config, plan)
    available = _physical_memory()
    if needed > available:
        raise ValueError(
            f"run needs about {needed / 2**30:.1f} GiB, more than the "
            f"{available / 2**30:.1f} GiB of physical memory; "
            "use fewer steps or grid points"
        )
    observers = tuple(observers)
    grid = config.grid
    time = config.time_grid
    dt = time.dt
    p = config.p
    state0 = make_initial_data(config)
    # u's, v's and the forcing's spectra at the step start (a linear run's forcing stays 0)
    uh = grid.to_spectrum(state0.u)
    vh = grid.to_spectrum(state0.v)
    fh = np.zeros_like(uh)
    history = SolutionHistory(config)
    history.records.append(_make_record(config, state0, uh, vh, fh))

    coeffs = StepCoefficients(grid, dt)
    initial_record = history.records[0]
    state = state0

    def _finish(status: RunStatus) -> SolutionHistory:
        history.status = status
        history.states = [state0, state]
        return history

    g = forcing = None
    with np.errstate(over="ignore", invalid="ignore"):
        if nonlinear:
            B, rates, weights = plan
            # the |u|^p samples of the current block, nodes b .. b + B
            block = np.zeros((B + 1,) + grid.shape)
            g = _power_p(state0.u, p, out=block[0])
            forcing = np.zeros(grid.shape)
            conv = MemoryConvolution(config.gamma, dt, B)
            w = conv.tail_weight
            gh = grid.to_spectrum(g)
            # lagged[k-1, q] = w_q e^(-s_q k dt); decay and moments fold a block
            lagged = weights * np.exp(-np.outer(dt * np.arange(1, B + 1), rates))
            decay = np.exp(-B * dt * rates)[:, None]
            moments = exponential_hat_moments(rates, dt, B)
            modes = np.zeros((len(rates), g.size))
            samples = block.reshape(B + 1, -1)
            tile = (B, min(g.size, _FOLD_TILE))
        for observer in observers:
            observer(0, state0, uh, g, forcing)

        for m, t_next in enumerate(map(float, time.times[1:])):
            u_row, v_row = coeffs.rows(uh, vh, fh)
            if nonlinear:
                k = m % B + 1
                # the known part of the memory sum, completed to the forcing
                known = conv.known_part(block, k)
                # block[k] holds node b + k's history part until its sample
                known += block[k]
                kh = grid.to_spectrum(known)
                # the predictor's u_hat, with the newest sample frozen
                uh_star = coeffs.finish(u_row, kh + w * gh)
                g_star = _power_p(grid.to_field(uh_star), p)
                fh = kh + w * grid.to_spectrum(g_star)
            uh, vh = coeffs.finish(u_row, fh), coeffs.finish(v_row, fh)
            u = grid.to_field(uh)
            v = grid.to_field(vh)
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                return _finish(_non_finite_status(
                    config, history.records[-1], initial_record, t_next, "u or v"
                ))
            if nonlinear:
                g = _power_p(u, p, out=block[k])
                known += w * g
                forcing = known
                if not np.isfinite(forcing).all():
                    return _finish(_non_finite_status(
                        config, history.records[-1], initial_record, t_next, "forcing"
                    ))
                gh = grid.to_spectrum(g)
                fh = kh + w * gh
            # u and v are new arrays from the inverse FFTs, checked finite above
            state = FieldState._of_checked(grid, u, v, t_next)
            record = _make_record(config, state, uh, vh, fh)
            history.records.append(record)
            for observer in observers:
                observer(m + 1, state, uh, g, forcing)
            if detect_blowup(record, initial_record, config.blowup_threshold):
                return _finish(RunStatus.blow_up(t_next))
            # the step's temporaries go before the fold and the next step
            del u_row, v_row
            if nonlinear:
                del kh, uh_star, g_star, known, forcing
                if k == B:
                    _fold_block(modes, decay, moments, samples, np.empty(tile))
                    # the block's last sample starts the next block, whose
                    # other rows take the history parts of its nodes
                    block[0] = block[B]
                    np.matmul(lagged, modes, out=samples[1:])

    return _finish(RunStatus.completed())


__all__ = [
    "EXTERIOR_MASS_BUDGET",
    "Phase",
    "RunStatus",
    "ScenarioConfig",
    "StepRecord",
    "SolutionHistory",
    "MemoryConvolution",
    "default_dt",
    "suggested_half_length",
    "make_initial_data",
    "Observer",
    "memory_estimate",
    "detect_blowup",
    "run",
]
