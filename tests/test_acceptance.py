"""Acceptance suite: one test per criterion, pinned tolerances, pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Simulation-backed criteria use the same desk-scale scenarios
throughout: boxes sized so the support ball never wraps, Gaussian bump data
resolved to spectral accuracy.  Criteria 1, 2, 3 and 8 measure through
``memwave verify``'s own functions and keep their tolerances here, so a
loosened ``cli.VERIFY_CHECKS`` row cannot pass unnoticed.
"""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad
from scipy.special import gamma as Gamma

from memwave.cli import CUI_TRIPLES, _verify_cui_rows, _verify_frac_rows
from memwave.criticality import blow_up_scaling_exponents, compute_exponents
from memwave.diagnostics import (
    TestFunctionParams,
    WeakPairing,
    energy_weight_exponent,
    exterior_energy,
    fit_decay_samples,
    singular_convolution_case,
    weak_residual,
)
from memwave.frac_ops import CutoffProfile, FracOrder, cutoff_deriv_closed_form
from memwave.spectral import SpatialGrid
from memwave.stepper import EXTERIOR_MASS_BUDGET, Phase, ScenarioConfig, run


def report(number: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number:2d}: {detail}")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear_run():
    """n=1 linear flow: N=4096, L=250, t_end=200, bump data of radius 2."""
    config = ScenarioConfig(
        grid=SpatialGrid(1, 250.0, 4096),
        gamma=0.9,
        p=4.5,
        support_radius=2.0,
        amplitude=1.0,
        dt=0.25,
        t_end=200.0,
        nonlinearity_enabled=False,
    )
    history = run(config)
    assert history.status.phase is Phase.COMPLETED
    return config, history


class KeepStates:
    """Test observer: the states at the given nodes."""

    def __init__(self, nodes):
        self.nodes = set(nodes)
        self.states = {}

    def __call__(self, node, state, uh, g, forcing):
        if node in self.nodes:
            self.states[node] = state


#: times at which criterion 11 samples the exterior energy
EXTERIOR_TIMES = (20.0, 40.0, 70.0, 100.0)


@pytest.fixture(scope="module")
def global_runs():
    """n=1, gamma=0.9, p=4.5 at the small-amplitude ladder, t_end=100.

    Each entry is (config, history, states at the EXTERIOR_TIMES nodes).
    """
    out = {}
    for amplitude in (1e-3, 1e-2):
        config = ScenarioConfig(
            grid=SpatialGrid(1, 120.0, 1024),
            gamma=0.9,
            p=4.5,
            support_radius=4.0,
            amplitude=amplitude,
            dt=0.1,
            t_end=100.0,
        )
        keep = KeepStates(int(round(t / config.dt)) for t in EXTERIOR_TIMES)
        out[amplitude] = (config, run(config, observers=(keep,)), keep.states)
    return out


@pytest.fixture(scope="module")
def frac_rows():
    """verify's frac_* rows: criteria 1-3 measure through the same code."""
    return _verify_frac_rows()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_inversion_identity(frac_rows):
    residual = frac_rows["frac_inversion", "residual"]
    order = frac_rows["frac_inversion", "order"]
    ok = residual <= 0.02 and order >= 0.8
    report(
        1,
        ok,
        f"inversion rel sup {residual:.2e} (tol 2e-2), "
        f"worst order {order:.2f} (need >= 0.8)",
    )


def test_criterion_02_closed_form_lattice(frac_rows):
    # constant confirmed against the quadrature oracle first
    sigma, alpha, t_probe, T = 7.0, 0.3, 0.3, 1.0
    h = 1e-5

    def right_integral(t):
        val, _ = quad(
            lambda s: (1 - s / T) ** sigma,
            t,
            T,
            weight="alg",
            wvar=(-alpha, 0.0),
            epsabs=1e-13,
        )
        return val / Gamma(1.0 - alpha)

    oracle = -(right_integral(t_probe + h) - right_integral(t_probe - h)) / (2 * h)
    closed = cutoff_deriv_closed_form(
        CutoffProfile(sigma, T), FracOrder(alpha), 0, t_probe
    )
    constant_ok = abs(closed - oracle) <= 1e-6 * abs(oracle)

    worst = frac_rows["frac_closed_form", "lattice_worst"]
    ok = constant_ok and worst <= 0.01
    report(
        2,
        ok,
        f"gamma-ratio constant vs oracle ok={constant_ok}, "
        f"27-point lattice worst {worst:.2e} (tol 1e-2)",
    )


def test_criterion_03_adjointness(frac_rows):
    rel = frac_rows["frac_adjoint", "relative_residual"]
    halving = frac_rows["frac_adjoint", "refinement_ratio"]
    ok = rel <= 0.01 and halving <= 0.5
    report(
        3,
        ok,
        f"adjointness rel residual {rel:.2e} (tol 1e-2), "
        f"refinement factor {halving:.2f} (need <= 0.5)",
    )


def test_criterion_04_exponent_algebra():
    rng = random.Random(20240817)
    checked = 0
    sign_ok = True
    while checked < 1000:
        n = rng.randint(1, 3)
        gamma = Fraction(rng.randint(1, 99), 100)
        p = 1 + Fraction(rng.randint(1, 1100), 100)
        if n - 2 + 2 * gamma <= 0:
            continue
        p_gamma = compute_exponents(n, gamma).p_gamma
        _, e2 = blow_up_scaling_exponents(n, gamma, p)
        sign_ok &= (e2 < 0) == (p < p_gamma)
        sign_ok &= (e2 > 0) == (p > p_gamma)
        sign_ok &= (e2 == 0) == (p == p_gamma)
        checked += 1

    gamma_close = 1.0 - 1e-6
    limits_ok = True
    for n in (1, 2, 3):
        exps = compute_exponents(n, gamma_close)
        target = 1.0 + 2.0 / n
        limits_ok &= abs(float(exps.p_gamma) - target) <= 1e-4
        limits_ok &= abs(float(exps.p_1) - target) <= 1e-4

    corner = compute_exponents(3, Fraction(11, 16))
    corner_ok = corner.p_3 == corner.sobolev_cap == Fraction(3, 1)

    ok = sign_ok and limits_ok and corner_ok
    report(
        4,
        ok,
        f"1000-sample sign equivalence {sign_ok}, gamma->1 limits within 1e-4 "
        f"{limits_ok}, rational corner p_3 = cap = 3 {corner_ok}",
    )


def test_criterion_05_linear_decay_rate(linear_run):
    _, history = linear_run
    times = history.times
    l2_du = history.record_array("l2_du")
    fit = fit_decay_samples(times, l2_du, (20.0, 200.0))
    ok = -0.95 <= fit.exponent <= -0.55 and fit.r_squared >= 0.95
    report(
        5,
        ok,
        f"linear ||Du|| exponent {fit.exponent:.3f} (window [-0.95, -0.55]), "
        f"r^2 {fit.r_squared:.4f} (need >= 0.95)",
    )


def test_criterion_06_global_regime_boundedness(global_runs):
    details = []
    ok = True
    for amplitude, (config, history, _) in global_runs.items():
        completed = history.status.phase is Phase.COMPLETED
        times = history.times
        l2_du = history.record_array("l2_du")
        weights = (1.0 + times) ** energy_weight_exponent(1, config.gamma)
        W = weights * l2_du
        node_t1 = int(round(1.0 / config.dt))
        ratio = W.max() / W[node_t1]
        ok &= completed and ratio <= 3.0
        details.append(f"eps={amplitude:g}: completed={completed}, supW/W(1)={ratio:.3f}")
    report(6, ok, "; ".join(details) + " (need <= 3)")


def test_criterion_07_blowup_regime_and_ladder():
    t_detect = []
    for amplitude in (1.0, 2.0, 4.0):
        config = ScenarioConfig(
            grid=SpatialGrid(1, 64.0, 512),
            gamma=0.9,
            p=2.0,
            support_radius=4.0,
            amplitude=amplitude,
            dt=0.125,
            t_end=50.0,
        )
        history = run(config)
        detected = history.status.phase is Phase.BLOWUP_DETECTED
        t_detect.append(history.status.t if detected else math.inf)
    before_horizon = all(t < 50.0 for t in t_detect)
    monotone = t_detect[0] >= t_detect[1] >= t_detect[2]
    ok = before_horizon and monotone
    report(
        7,
        ok,
        f"blow-up detections at t={t_detect} (all < 50, non-increasing in amplitude)",
    )


def test_criterion_08_cui_estimate_table():
    # each label names the case its triple must fall in
    cases_ok = all(
        singular_convolution_case(theta, a, b) == label.split("_")[0]
        for label, theta, a, b in CUI_TRIPLES
    )
    sups, slopes = zip(*_verify_cui_rows().values())
    # non-increasing trend: fitted last-decade slope at most 0.01 (the
    # sub case converges to its constant from below; see ledger)
    ok = cases_ok and all(map(math.isfinite, sups)) and max(slopes) <= 0.01
    report(
        8,
        ok,
        f"9 triples: cases match {cases_ok}, sup ratio {max(sups):.2f} finite, "
        f"worst last-decade slope {max(slopes):.4f} (tol 0.01)",
    )


def test_criterion_09_weak_solution_consistency():
    residuals = []
    for points, n_steps in ((256, 128), (512, 256)):
        config = ScenarioConfig(
            grid=SpatialGrid(1, 16.0, points),
            gamma=0.9,
            p=4.5,
            support_radius=2.0,
            amplitude=1e-2,
            dt=8.0 / n_steps,
            t_end=8.0,
        )
        params = TestFunctionParams(
            ell=8, eta=7.0, B=6.0, T=8.0, alpha=FracOrder(0.1)
        )
        pairing = WeakPairing(params, config.grid)
        history = run(config, observers=(pairing,))
        residuals.append(weak_residual(history, pairing, config.p, config.gamma))
    ratio = residuals[0] / residuals[1]
    ok = ratio >= 1.5
    report(
        9,
        ok,
        f"weak residual {residuals[0]:.2e} -> {residuals[1]:.2e} under "
        f"(dt, dx) halving, ratio {ratio:.2f} (need >= 1.5)",
    )


def test_criterion_10_finite_propagation(linear_run):
    config, history = linear_run
    worst = 0.0
    for record in history.records:
        if record.l2_u > 0.0:
            worst = max(worst, record.exterior_mass / record.l2_u)
    ok = worst <= EXTERIOR_MASS_BUDGET
    report(
        10,
        ok,
        f"exterior mass beyond the support ball <= {worst:.2e} of total "
        f"over {len(history.records)} steps (tol {EXTERIOR_MASS_BUDGET:g})",
    )


def test_criterion_11_desk_scale_statement(global_runs):
    # The sharp n = 2, 3 energy rates need horizons and boxes beyond desk
    # scale; the stated substitutes are the n = 1 rate window (criterion 5),
    # the weighted-energy boundedness property (criterion 6), and the
    # exterior-energy monotone decrease checked here.
    _, history, states = global_runs[1e-2]
    samples = []
    for t in EXTERIOR_TIMES:
        idx = int(round(t / history.config.dt))
        state = states[idx]
        ext = exterior_energy(state, 0.1)
        assert not ext.region_empty
        samples.append(ext.value / history.records[idx].l2_du)
    decreasing = all(a > b for a, b in zip(samples, samples[1:]))
    report(
        11,
        decreasing,
        "n=2,3 asymptotic rates not reproducible at desk scale (stated); "
        f"substitute exterior-energy ratio decreasing: {decreasing}",
    )
