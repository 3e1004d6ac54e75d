"""Critical-exponent algebra for the memory-forced damped wave equation.

All thresholds are rational functions of (n, gamma) with positive-part
denominators; an exponent whose denominator's positive part vanishes is the
extended real +inf (no upper constraint).  Computations stay exact when fed
``fractions.Fraction`` inputs, which is how equality cases are decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

INF = math.inf


def _positive_part(x):
    return x if x > 0 else type(x)(0)


def _ratio(numerator, denominator):
    """numerator / (denominator)_+ with +inf for a vanishing positive part."""
    den = _positive_part(denominator)
    if den == 0:
        return INF
    return numerator / den


def fujita_exponent(n: int):
    """The heat-equation threshold 1 + 2/n."""
    return 1 + Fraction(2, n) if isinstance(n, int) else 1 + 2 / n


@dataclass(frozen=True)
class ExponentSet:
    """Threshold exponents for a given dimension and kernel strength.

    ``p_gamma`` bounds the proven blow-up range, ``p_1 .. p_3`` the proven
    global-existence ranges per dimension, ``sobolev_cap`` the local-theory
    cap n/(n-2); values are +inf where no constraint applies.
    """

    n: int
    gamma: Number
    p_c: Number
    p_gamma: Number
    p_1: Number
    p_2: Number
    p_3: Number
    sobolev_cap: Number

    @property
    def inv_gamma(self) -> Number:
        """1/gamma, which coincides with p_gamma exactly at gamma = (n-2)/n."""
        if isinstance(self.gamma, Fraction):
            return 1 / self.gamma
        return 1.0 / self.gamma

    @property
    def p_n(self) -> Number:
        """Global-existence threshold for this dimension."""
        return (self.p_1, self.p_2, self.p_3)[self.n - 1]


def compute_exponents(n: int, gamma: Number) -> ExponentSet:
    """Evaluate every threshold exponent with the positive-part convention.

    As gamma -> 1, p_gamma and p_1 tend to the heat threshold 1 + 2/n, p_2
    tends to 3 at n = 2 and p_3 to 2 at n = 3.  The paper states the n = 2
    limit of p_2 as the number 3; the gamma-dependent closed form
    (2 gamma + 1)/(2 gamma - 1) equals 3 only at gamma = 1.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not (0 < gamma < 1):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    two = Fraction(2) if isinstance(gamma, Fraction) else 2.0
    p_gamma = 1 + _ratio(two * (2 - gamma), n - 2 + 2 * gamma)
    p_1 = 1 + _ratio(two * (3 - 2 * gamma), n - 2 + 2 * gamma)
    p_2 = 1 + _ratio(2 * two * (3 - 2 * gamma), n - 4 + 4 * gamma)
    p_3 = 1 + _ratio(n + two * (5 - 4 * gamma), n - 2 + 4 * gamma)
    if n <= 2:
        cap = INF
    elif isinstance(gamma, Fraction):
        cap = Fraction(n, n - 2)
    else:
        cap = n / (n - 2)
    return ExponentSet(
        n=n,
        gamma=gamma,
        p_c=fujita_exponent(n),
        p_gamma=p_gamma,
        p_1=p_1,
        p_2=p_2,
        p_3=p_3,
        sobolev_cap=cap,
    )


@dataclass(frozen=True)
class DataTraits:
    """Hypotheses carried by the initial data."""

    positive_mean: bool = False
    small_data: bool = False
    compact_support: bool = False


@dataclass(frozen=True)
class RegimeVerdict:
    """Classification outcome with the clause that produced it."""

    tag: str  # one of VERDICT_TAGS
    citation: str
    notes: str = ""


VERDICT_TAGS = (
    "GlobalSmallData",
    "BlowUpPositiveData",
    "OpenRegion",
    "OutsideTheoremScope",
)


def _in_global_window(n: int, gamma: Number) -> bool:
    if n in (1, 2):
        return Fraction(1, 2) < gamma < 1
    if n == 3:
        return Fraction(11, 16) < gamma < 1
    return False


def classify(n: int, gamma: Number, p: Number, traits: DataTraits) -> RegimeVerdict:
    """Place (n, gamma, p) plus data hypotheses into a proven regime.

    Order of application: the low-regularity blow-up clause (n >= 3,
    gamma <= (n-2)/n), then the subcritical blow-up clause (p <= p_gamma),
    then small-data global existence (p above the dimension threshold inside
    the admissible gamma window), then the open strip p in (p_gamma, p_n];
    anything else is outside the proven scope.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    exps = compute_exponents(n, gamma)
    gamma_star = Fraction(n - 2, n) if isinstance(gamma, Fraction) else (n - 2) / n

    if n >= 3 and gamma <= gamma_star and p <= exps.sobolev_cap and traits.positive_mean:
        return RegimeVerdict(
            tag="BlowUpPositiveData",
            citation="blow-up clause ii: n >= 3, gamma <= (n-2)/n, p <= n/(n-2)",
        )
    if (
        gamma > gamma_star
        and p <= exps.p_gamma
        and p <= exps.sobolev_cap
        and traits.positive_mean
    ):
        return RegimeVerdict(
            tag="BlowUpPositiveData",
            citation="blow-up clause i: (n-2)/n < gamma < 1, p <= p_gamma",
        )
    in_window = _in_global_window(n, gamma)
    if in_window and p > exps.p_n and traits.small_data and traits.compact_support:
        return RegimeVerdict(
            tag="GlobalSmallData",
            citation=f"global existence: p > p_{n} with small compact data",
        )
    if in_window and exps.p_gamma < p <= exps.p_n:
        return RegimeVerdict(
            tag="OpenRegion",
            citation=f"open strip p_gamma < p <= p_{n}",
            notes="neither global existence nor blow-up is proven here",
        )
    return RegimeVerdict(tag="OutsideTheoremScope", citation="")


def blow_up_scaling_exponents(n: int, gamma: Number, p: Number):
    """Horizon-scaling exponents (e1, e2) of the rescaled test-function bound.

    With alpha = 1 - gamma and p' = p/(p-1):
    e_k = -(alpha + k) p' + n/2 + 1 for k = 2, 1.  Always e1 < e2, and
    e2 < 0 is algebraically equivalent to p < p_gamma (both reduce to
    p (n - 2 + 2 gamma) < n + 2 when the denominator is positive).  No run
    output uses it: it is the sign identity that acceptance criterion 4
    checks against ``compute_exponents``.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if not (0 < gamma < 1):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    alpha = 1 - gamma
    p_prime = p / (p - 1)
    half_n = Fraction(n, 2) if isinstance(p_prime, Fraction) else n / 2
    e1 = -(alpha + 2) * p_prime + half_n + 1
    e2 = -(alpha + 1) * p_prime + half_n + 1
    return e1, e2


__all__ = [
    "INF",
    "Number",
    "ExponentSet",
    "DataTraits",
    "RegimeVerdict",
    "VERDICT_TAGS",
    "fujita_exponent",
    "compute_exponents",
    "classify",
    "blow_up_scaling_exponents",
]
