"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class SpecValidationError(ValueError):
    """A property description violates one of its structural invariants."""


class NotSufficientlyRich(Exception):
    """An excitation plan cannot settle the requested property.

    Carries the unit directions of the minimum subspace that the plan
    fails to span, as a list of column vectors, and `span`, the identifier's
    read of the plan (a `ratmat.Span`), which the counterexample recipe reuses.
    """

    def __init__(self, message, missing=(), span=None):
        super().__init__(message)
        self.missing = tuple(missing)
        self.span = span


class SectionIsRich(Exception):
    """No counterexample exists: the excitation plan is sufficiently rich."""


class InconsistentDataset(Exception):
    """No linear system reproduces the dataset exactly; the data is corrupted."""


class GainNotApplicable(Exception):
    """Direct gain synthesis needs a square, invertible state block."""


class InternalFault(Exception):
    """An internal invariant failed; indicates a bug, not bad input."""
