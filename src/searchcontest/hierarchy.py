"""Two-level competition: designers field teams of searching workers.

Each of M designers posts an internal prize for a team of N workers; the
designer whose team delivers the highest value wins the meta-prize. Workers
fully dissipate the internal prize (their subgame is the one-prize contest),
so a designer's choice of internal prize is equivalent to a choice of worker
threshold. The symmetric equilibrium threshold has a closed form; this module
also verifies the first-order condition behind it by direct quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._numerics import qagse
from .distributions import Distribution
from .errors import InvalidParameterError, NotViableError, require_count, require_positive

_QUAD_TOL = 1e-11


@dataclass(frozen=True)
class DesignerParams:
    """Designer count M, team size N, per-draw cost, and the designers' meta prize."""
    n_designers: int  # M
    team_size: int  # N
    cost: float
    meta_prize: float

    def __post_init__(self):
        for name, lo in (("n_designers", 2), ("team_size", 1)):
            object.__setattr__(self, name, require_count(name, getattr(self, name), lo))
        require_positive("cost", self.cost)
        require_positive("meta_prize", self.meta_prize)

    @property
    def acceptance_prob(self) -> float:
        m, n = self.n_designers, self.team_size
        return self.cost * m * (n * m - 1) / (self.meta_prize * (m - 1))

    @property
    def viable(self) -> bool:
        return self.acceptance_prob < 1.0


@dataclass(frozen=True)
class DesignerEquilibrium:
    """Team threshold and its quantile, internal prize, designer value and dissipation."""
    threshold: float
    threshold_quantile: float
    internal_prize: float
    designer_value: float
    dissipation_ratio: float


@dataclass(frozen=True)
class FocReport:
    """A designer's first-order condition checked by finite differences against its closed form."""
    prob_at_equilibrium: float
    fd_derivative: float  # dP/d(threshold), Richardson-extrapolated
    closed_form_derivative: float
    relative_error: float
    marginal_benefit: float  # meta_prize * dP/db
    marginal_cost: float  # d(internal prize)/db
    foc_gap_relative: float
    deviation_gap: float  # max payoff gain on a deviation grid (<= 0 at optimum)
    step: float
    passed: bool


def solve_designer(params: DesignerParams, d: Distribution) -> DesignerEquilibrium:
    """Closed-form symmetric equilibrium; quantile is distribution-free."""
    m, n = params.n_designers, params.team_size
    accept = params.acceptance_prob
    if accept > 1.0:
        raise NotViableError(
            f"required acceptance probability {accept:.6g} exceeds 1: costs too high"
        )
    return DesignerEquilibrium(
        threshold=d.threshold(accept),
        threshold_quantile=1.0 - accept,
        internal_prize=n * params.cost / accept,
        designer_value=params.meta_prize * (n - 1) / (m * (n * m - 1)),
        dissipation_ratio=n * (m - 1) / (n * m - 1),
    )


def _win_probability(q_dev: float, q_eq: float, m: int, n: int) -> float:
    """P(deviating team wins) when its workers stop at quantile q_dev and all
    other teams stop at q_eq. Parameterized by the deviator's truncated
    quantile t; other teams' best-of-N CDF enters as a power of the base
    truncated quantile."""
    def integrand(t: float) -> float:
        qx = q_dev + t * (1.0 - q_dev)
        g_others = (qx - q_eq) / (1.0 - q_eq)
        if g_others <= 0.0:
            return 0.0
        return g_others ** (n * (m - 1)) * n * t ** (n - 1)

    # The deviator cannot win while its value is below q_eq, so the integrand
    # is 0 below the kink t = (q_eq - q_dev) / (1 - q_dev). Starting there, no
    # Kronrod rule straddles the kink, and the result has the bits of
    # QUADPACK's break-point driver over [0, 1] with the kink as its point.
    lo = (q_eq - q_dev) / (1.0 - q_dev) if q_dev < q_eq else 0.0
    return qagse(integrand, lo, 1.0, _QUAD_TOL, 0.0, 50)[0]


def verify_designer_foc(
    params: DesignerParams, d: Distribution, step: float = 1e-5
) -> FocReport:
    """Check the equilibrium first-order condition by finite differences.

    The winning probability is integrated numerically, differentiated at the
    equilibrium with a Richardson-extrapolated central difference in quantile
    space, chained through the density, and compared with the closed form
    N f(b)(M-1) / ((1-F(b)) M (NM-1)).
    """
    if not (1e-10 < step < 1e-2):
        raise InvalidParameterError(f"step {step} outside sensible range (numeric warning)")
    if not params.viable:
        raise NotViableError("no interior equilibrium to verify")
    m, n = params.n_designers, params.team_size
    eq = solve_designer(params, d)
    q = eq.threshold_quantile
    room = min(q, 1.0 - q)
    if step > room:  # the differences read P at q - step and q + step
        raise InvalidParameterError(
            f"step {step} does not fit inside [0, 1] around the equilibrium quantile {q}")
    if step > room / 10:  # the Richardson error grows as (step / room)^4
        raise InvalidParameterError(
            f"step {step} is over a tenth of {room}, the distance from the equilibrium "
            f"quantile {q} to the edge of [0, 1]: the difference would be inaccurate")
    b = eq.threshold
    fb = float(d.density(b))

    prob_eq = _win_probability(q, q, m, n)

    def central(h: float) -> float:
        return (_win_probability(q + h, q, m, n) - _win_probability(q - h, q, m, n)) / (2 * h)

    d1, d2 = central(step), central(step / 2)
    dp_dq = (4 * d2 - d1) / 3
    fd_derivative = dp_dq * fb  # chain rule back to threshold space

    tail = 1.0 - q
    closed = n * fb * (m - 1) / (tail * m * (n * m - 1))
    rel_err = abs(fd_derivative - closed) / abs(closed)

    marginal_benefit = params.meta_prize * fd_derivative
    marginal_cost = n * params.cost * fb / tail**2  # d/db of N c/(1-F(b))
    foc_gap = abs(marginal_benefit - marginal_cost) / marginal_cost

    # local optimality: designer payoff Omega*P(q_m) - N c/(1-q_m) on a grid
    payoff_eq = params.meta_prize * prob_eq - n * params.cost / tail
    gap = -math.inf
    for i in range(1, 41):
        qm = i / 41.0 * (1.0 - 1e-6)
        payoff = params.meta_prize * _win_probability(qm, q, m, n) - n * params.cost / (1.0 - qm)
        gap = max(gap, payoff - payoff_eq)

    passed = rel_err < 1e-4 and abs(prob_eq - 1.0 / m) < 1e-9 and gap <= 1e-9
    return FocReport(
        prob_at_equilibrium=prob_eq,
        fd_derivative=fd_derivative,
        closed_form_derivative=closed,
        relative_error=rel_err,
        marginal_benefit=marginal_benefit,
        marginal_cost=marginal_cost,
        foc_gap_relative=foc_gap,
        deviation_gap=gap,
        step=step,
        passed=passed,
    )

