"""Exception hierarchy for stablewalk.

Every error derives from StableWalkError, and the command line maps an error
to its exit code by family alone: a ConfigError exits 2, a BudgetError exits
3 (`verify` records it per id and runs the rest), and any other error exits
1.  A new error joins a family by subclassing it.
"""


class StableWalkError(Exception):
    """Base class for all library errors."""


class ConfigError(StableWalkError):
    """Malformed or infeasible configuration input."""


class BudgetError(StableWalkError):
    """A numerical budget (escaped mass, quadrature error, truncation tail) was not met."""


class AlphaOutOfRange(ConfigError):
    """Stable index must lie strictly inside (1, 2)."""


class InfeasibleMeanAdjustment(ConfigError):
    """Zero-mean correction would require a negative atom or p(0) <= 0."""


class AperiodicityFailure(StableWalkError):
    """Support of the increment law does not generate the full lattice."""


class QuadratureNonConvergence(BudgetError):
    """Error estimate above tolerance after maximal refinement."""


class SingularSystem(StableWalkError):
    """Hitting-distribution linear system is numerically singular."""


class ExtrapolationUnstable(StableWalkError):
    """Tail extrapolation did not stabilise across depths."""


class WindowTooSmall(BudgetError):
    """The DP window cannot hold the run: below 1, a start or site outside it, or escaped mass above budget."""


class TruncationTooCoarse(BudgetError):
    """Ladder pmf truncation tail above budget."""


class RegimeViolation(StableWalkError):
    """Grid point does not satisfy the regime constraint of the requested form."""


class InfiniteCPlus(StableWalkError):
    """Operation requires a law with a bounded one-sided potential."""


class ResolutionTooCoarse(StableWalkError):
    """Kernel resolution too coarse for the requested scaled estimate."""


class ConditioningMassZero(StableWalkError):
    """Conditioning event has (numerically) zero probability."""


class ConditioningTooRare(StableWalkError):
    """Too few effective Monte Carlo trials on the conditioning event."""
