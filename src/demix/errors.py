"""Failure modes of the estimation pipeline.

Argument and state validation raises plain ValueError.  The exceptions here
mark data-dependent failures of an otherwise valid run, so callers (and the
CLI exit-code mapping) can tell the two apart.  The warnings here mark a
stage that went on with a result it could not vouch for.
"""


class PipelineError(RuntimeError):
    """An estimation stage failed on the given data."""


class EmptyWindowError(PipelineError):
    """No samples fall inside the requested covariate window."""


class ProjectionError(PipelineError):
    """The projection LP returned no solution with positive atom mass."""


class ThresholdTooHighError(PipelineError):
    """The super-level set at the requested threshold is empty."""


class UnderResolutionError(PipelineError):
    """The super-level set has fewer maximal intervals than components."""


class DegenerateComponentError(PipelineError):
    """A partition cell received no mixing mass."""


class InsufficientDataError(PipelineError):
    """Too few samples to run the requested scan."""


class ProjectionWarning(UserWarning):
    """The projection LP solution is short of optimal or off the simplex."""
