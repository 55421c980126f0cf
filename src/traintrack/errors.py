"""Exception types shared across the package."""


class TrainTrackError(Exception):
    """Base class for all library errors."""


class MalformedPath(TrainTrackError):
    """Edge sequence is not a path (non-incident consecutive edges, bad edge name...)."""


class EndpointMismatch(TrainTrackError):
    """Concatenation or image endpoints do not line up."""


class NotCompletelySplit(TrainTrackError):
    """No complete splitting of a path could be verified.

    Carries the failure position (edge offset into the path) in ``position``.
    """

    def __init__(self, msg, position=None):
        super().__init__(msg)
        self.position = position


class LViolation(TrainTrackError):
    """Two linear edges share an axis in a forbidden way (same exponent or twisted word)."""


class InconsistentFiltration(TrainTrackError):
    """The maximal filtration produced a stratum shape the theory rules out."""


class AdmissibilityError(TrainTrackError):
    """Exponent tuple is outside the admissible lattice (or negative)."""


class FaRefused(TrainTrackError):
    """f_a is not written: a hypothesis of the term DAG's lemma fails (f_a needs a CT)."""


class InvariantForestError(TrainTrackError):
    """The map carries a nontrivial invariant forest and must be reduced first."""


class InputError(TrainTrackError):
    """Bad user-supplied document or CLI argument.

    ``position`` optionally carries a human-readable location tag.
    """

    def __init__(self, msg, position=None):
        super().__init__(msg)
        self.position = position
