"""Exception types shared across the package."""


class SgringError(Exception):
    """Base class for every error raised by this package."""


class RingSpecError(SgringError, ValueError):
    """Invalid ring description."""


class NonPositiveAB(RingSpecError):
    """The pure-power exponents a, b must both be >= 1."""


class ZeroGenerator(RingSpecError):
    """A middle generator (0, 0) would be the constant monomial 1."""


class NegativeExponent(RingSpecError):
    """Exponent vectors of generators must be componentwise nonnegative."""


class BudgetExceeded(SgringError):
    """A layer's work would exceed what is left of the run's work budget.

    Raised only by the `core.Work` ledger, instead of silently truncating:
    the oracle never returns an unverified answer.  The message names the
    layer, its units, the budget and what each layer has spent.
    """


class TrivialSubgroup(SgringError, ValueError):
    """The ring constructor requires a nontrivial congruence subgroup."""


class InfeasibleHilbertData(SgringError, ValueError):
    """No ring realizes the requested (constant, stabilization) pair.

    A stabilization index N >= 1 forces the Hilbert constant to exceed N:
    the constant is a sum of per-class ladder lengths and N is a gap inside
    one of those ladders, so N <= length - 1 <= constant - 1.
    """


class ZeroGeneratorPair(SgringError, ValueError):
    """A generator pair (0, 0) where the four-generator form needs a monomial."""


class InvalidDN(SgringError, ValueError):
    """The pure-power exponents of a four-generator ring must be >= 1."""


class NotFourGen(SgringError, ValueError):
    """An operation restricted to rings with exactly two middle generators."""


class InvalidCurve(SgringError, ValueError):
    """Curve exponents must satisfy 0 < l < m < n."""


class NonTermination(SgringError, RuntimeError):
    """Internal guard: the basis loop exceeded its proven iteration bound."""


class IdentityViolation(SgringError, RuntimeError):
    """Internal guard: a proven determinant identity failed to hold."""


class DisagreementError(SgringError, RuntimeError):
    """Two criteria that must agree returned different verdicts (a bug)."""
