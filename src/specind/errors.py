"""Exception hierarchy shared across the package."""


class SpecindError(Exception):
    """Base class for all package errors."""


class MalformedGraph6(SpecindError):
    """Input is not a valid graph6 line."""


class DisconnectedGraph(SpecindError):
    """Graph is not connected; all computations assume connectivity."""


class InvalidFamilyParameters(SpecindError):
    """Family parameters violate the family's validity constraints."""


class EigenFailure(SpecindError):
    """Dense symmetric eigensolver did not converge."""


class GroupingAmbiguity(SpecindError):
    """Eigenvalue gaps straddle the grouping threshold too closely."""


class NoClosedForm(SpecindError):
    """No closed-form spectrum is known for this family."""


class DegenerateInnerProduct(SpecindError):
    """Spectral inner product is degenerate (upstream grouping error)."""


class NumericalInstability(SpecindError):
    """Solver produced an inconsistent solution; re-solve advised."""


class NotRegular(SpecindError):
    """Operation requires a regular graph."""


class TraceNotZero(SpecindError):
    """Sign polynomial must have zero spectral trace."""


class NotPWR(SpecindError):
    """Graph is not k-partially walk-regular for the requested k."""


class BadNormalization(SpecindError):
    """Minor polynomial must satisfy f(theta_0)=1 and min_{i>=1} f(theta_i)=0."""


class NoValidTheta(SpecindError):
    """No eigenvalue satisfies the selection rule of the closed form."""


class NotWalkRegular(SpecindError):
    """Operation requires a walk-regular graph."""


class NegativeRadicand(SpecindError):
    """Clique size exceeds what the spectrum allows."""


class NotSRG(SpecindError):
    """Operation requires a strongly regular graph."""


class NotApplicable(SpecindError):
    """Hypotheses of the operation are not met."""


class SizeLimitExceeded(SpecindError):
    """Instance is larger than the configured limit for the exact oracle."""


class SearchTimeout(SpecindError):
    """A search exceeded its budget: a wall-clock timeout or a work count."""


class UnknownTable(SpecindError):
    """Unknown table identifier."""
