"""Exception types raised by the nullwave solvers.

Every failure mode of the numerical pipeline maps to one subclass of
NullwaveError so callers can trap solver trouble without catching
unrelated bugs.
"""


class NullwaveError(Exception):
    """Base class for all nullwave exceptions."""


class DomainError(NullwaveError):
    """A state quantity left the admissible domain of the nonlinearity."""


class HyperbolicityLoss(NullwaveError):
    """The quasilinear operator stopped being hyperbolic (kappa <= 0)."""


class QuadratureFailure(NullwaveError):
    """Adaptive Simpson (envelope_integral) ran out of evaluations."""


class GridMismatch(NullwaveError):
    """Two objects live on incompatible grids, or a grid is malformed."""


class InnerFixedPointDivergence(NullwaveError):
    """The per-cell implicit update of the march failed to converge."""


class FrameTransportStall(InnerFixedPointDivergence):
    """The frame transport's per-front implicit update did not converge."""


class SliceNotSpacelike(NullwaveError):
    """The t=0 slice is not spacelike for the acoustic metric (g^00 >= 0)."""


class NoRealRoot(NullwaveError):
    """An eikonal quadratic has no admissible real root."""


class RootAmbiguity(NullwaveError):
    """Eikonal root selection could not be disambiguated."""


class FrameDegenerate(NullwaveError):
    """The null frame degenerated (g(L, Lb) vanished or blew up)."""


class FixedPointDivergence(NullwaveError):
    """The global solution-map iteration failed to contract."""


class CFLViolation(NullwaveError):
    """Time step exceeds the CFL bound of the rectangular solver."""


class OutOfImage(NullwaveError):
    """A target point lies outside the image of the coordinate map."""


class InversionFailure(NullwaveError):
    """Newton inversion of the coordinate map did not converge."""


class InsufficientDomain(NullwaveError):
    """The computational box is too small for the requested diagnostic."""


class ScenarioError(NullwaveError):
    """A scenario description failed validation.

    problems lists each problem found, one message each; the error's
    message is their "; " join.
    """

    def __init__(self, *problems):
        self.problems = list(problems)
        super().__init__("; ".join(problems))
