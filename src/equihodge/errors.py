"""Exception types shared across the library."""


class EquihodgeError(Exception):
    """Base class for all library errors."""


class BackendMismatch(EquihodgeError, ValueError):
    """Forms from different backends (or wrong degrees) were combined.

    Also a :class:`ValueError`, since the culprit is always an argument.
    """


class NotClosed(EquihodgeError):
    """An operation required a closed form (d w = 0) and got one that is not."""


class NotInvariant(EquihodgeError, ValueError):
    """An operation required a symmetry-invariant form and got one that is not."""


class ResidualNotZero(EquihodgeError):
    """An extension left |d_G(alpha_hat)| above its backend's bound: on an
    exact backend any nonzero value (d_G does not square to zero), on a mesh
    more than h |alpha| (the input is too rough for the mesh)."""


class ObstructionDetected(EquihodgeError):
    """A contracted form has a nonzero harmonic part, so it is not exact.

    This certifies that the extension step fails for the given input: the
    fixed-point / extendability hypothesis does not hold on this backend.
    """

    def __init__(self, stage, residual):
        self.stage = stage
        self.residual = residual
        super().__init__("nonzero harmonic obstruction at stage %d (residual %g)"
                         % (stage, residual))


class PreconditionViolated(EquihodgeError):
    """A chain of partial-extension terms fails its compatibility relations."""

    def __init__(self, index, message=None):
        self.index = index
        if message is None:
            message = "relation d(a_%d) = boundary(a_%d) fails" % (index, index - 1)
        super().__init__(message)


class TruncationError(EquihodgeError):
    """A result does not fit in the backend's coefficient space.

    Raised instead of silently clipping; rebuild the backend with a larger
    truncation margin.
    """


class SolverError(EquihodgeError):
    """A linear solve, dense or iterative, left a relative residual above
    its tolerance."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__("solver did not converge after %d iterations "
                         "(residual %g)" % (iterations, residual))


class MeshError(EquihodgeError):
    """A mesh is invalid or fails a quality requirement."""


class FormatError(EquihodgeError):
    """Malformed serialized input."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
