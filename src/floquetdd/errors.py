"""Exception hierarchy shared across the package.

``ValueError`` is raised for plain invalid arguments (non-finite inputs,
out-of-range parameters).  Everything that can fail for a *physical* reason
during an otherwise valid computation derives from :class:`PhysicsError`, so
the command line front end can map it to its own exit code.
"""


class PhysicsError(Exception):
    """A computation failed for a physics-domain reason."""


class DegenerateQuasienergiesError(PhysicsError):
    """Quasienergies collide within 1e-12 * omega; Floquet branches cannot be separated.

    Callers should perturb the drive parameters (the degeneracy sits exactly
    on a quasienergy crossing).
    """


class UndefinedMixingAngleError(PhysicsError):
    """Generalized Rabi frequency is zero, the dressed basis is undefined."""


class SidebandTruncationError(PhysicsError):
    """A sideband sum did not converge within the available cutoff."""


class SteadyStateDegeneracyError(PhysicsError):
    """The Liouvillian null space is not one dimensional."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(
            f"steady state is not unique: null space has dimension {dimension}"
        )


class HierarchyViolationError(PhysicsError):
    """Time-scale hierarchy required for a comparison does not hold."""


class ScenarioError(Exception):
    """A scenario file is malformed or inconsistent."""
