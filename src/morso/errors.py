"""Exception and warning types shared across the package, and the checks
of integer and real parameters."""

import numbers
import operator


class MorsoError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MorsoError):
    """Input from outside is malformed or out of range; the CLI exits 1."""


class SingularMass(MorsoError):
    """The mass matrix (or a reduced mass matrix) is numerically singular."""


class SingularAtPoint(MorsoError):
    """The characteristic polynomial matrix is singular at the evaluation
    point, i.e. the point is a characteristic frequency of the system."""


class ZeroPoint(MorsoError):
    """z = 0 is not admissible for the discrete transfer function."""


class DomainMismatch(ValidationError):
    """A continuous system was supplied where a discrete one was required,
    or vice versa."""


class NonPositiveStep(ValidationError):
    """The discretization step must be strictly positive."""


class DimensionMismatch(ValidationError):
    """Matrix dimensions are inconsistent with each other or with the
    declared/expected sizes."""


class SvdFailure(MorsoError):
    """The SVD kernel did not converge."""


class NonFiniteIterate(MorsoError):
    """A subspace iterate contains NaN or Inf entries.  This usually means
    the discrete system is unstable (check the discretization step)."""


class MaxStepsExceeded(MorsoError):
    """The angle-based stopping rule was not met within the step budget."""


class RankCollapse(MorsoError):
    """The coupling matrix between the two final subspaces is numerically
    zero; the recursion failed to produce usable subspaces."""


class BiorthogonalityError(MorsoError):
    """The constructed projection pair violates Y^T X = I beyond the
    admissible tolerance (severely ill-conditioned subspace coupling)."""


class UnstableSystem(MorsoError):
    """An operation that requires asymptotic stability received an
    unstable (or marginally stable) system."""


class OrderTooLarge(MorsoError):
    """The requested reduced order exceeds the available (numerical) order."""


class RankDeficient(MorsoError):
    """A matrix that must have full column rank does not."""


class BadParameters(ValidationError):
    """Invalid scalar parameters (sizes, tolerances, physical constants)."""


def check_integer(value, name):
    """`value` as a Python int if it is an integer: a Python or numpy
    integer, or anything else ``operator.index`` accepts.  Raises
    BadParameters otherwise; a float with an integral value, such as
    ``3.0``, is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParameters(f"{name} must be an integer, got {value!r}") from None


def check_real(value, name):
    """`value` as a Python float if it is a real number: a Python or numpy
    integer or float (``numbers.Real``).  Raises BadParameters otherwise,
    also for a string such as ``'0.5'``."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise BadParameters(f"{name} must be a real number, got {value!r}")


class ParseError(ValidationError):
    """A file could not be parsed.  Carries the path and line number."""

    def __init__(self, path, lineno, reason):
        self.path = path
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{path}:{lineno}: {reason}")


class MissingFile(ValidationError):
    """A required input file does not exist."""


class MorsoWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class ConditioningWarning(MorsoWarning):
    """A matrix is so ill-conditioned that results may be inaccurate."""


class ShrunkRankWarning(MorsoWarning):
    """The effective reduced order was shrunk below the requested one."""


class RankCollapseWarning(MorsoWarning):
    """The retained singular values span more than ~14 decades; trailing
    directions are numerically meaningless."""


class UnstableDiscretizationWarning(MorsoWarning):
    """Discretization turned a stable continuous system into an unstable
    difference system; the step size is too large for the chosen scheme."""


class UnstableReductionWarning(MorsoWarning):
    """A reduced model is unstable or marginally stable; the message gives
    its stability margin."""
