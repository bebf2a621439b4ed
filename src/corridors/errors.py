"""Exception types shared across the package.

Every error raised on a violated precondition or an impossible request
subclasses CorridorsError, so the CLI can map failures onto its exit codes.
"""


class CorridorsError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpec(CorridorsError):
    """Construction parameters outside the valid range (e.g. N < d)."""


class DisconnectedGraph(CorridorsError):
    """Distance queries require a connected dual graph."""


class NoLegalColor(InvalidSpec):
    """The window excludes every color (color count <= window size)."""


class IncompleteColoring(CorridorsError):
    """The coloring does not cover every vertex of the complex."""


class PreconditionViolated(CorridorsError):
    """Input coloring fails the refinement stage's entry requirements."""


class ResampleCapExceeded(CorridorsError):
    """Resampling hit its safety cap; retry with a new seed or more colors.

    violating is the number of patterns still colliding and resamples the
    number of resamples used.
    """

    def __init__(self, violating: int, resamples: int):
        # the fields are the args, so a pickled copy rebuilds the same error
        super().__init__(violating, resamples)
        self.violating = violating
        self.resamples = resamples

    def __str__(self):
        return (
            f"{self.violating} colliding patterns left "
            f"after {self.resamples} resamples"
        )


class ImproperColoring(CorridorsError):
    """Two adjacent vertices share a color, so patterns are not sets."""


class DimensionTooSmall(CorridorsError):
    """Bound formula requested below its minimal dimension."""


class NotRegular(CorridorsError):
    """Regular-graph diameter bound checked on a non-regular graph."""


class NotPseudomanifold(CorridorsError):
    """f-vector identity holds only for pseudomanifolds."""


class RetriesExhausted(CorridorsError):
    """First-stage coloring never met its class-size cap within the retry budget.

    best is the smallest largest-class size seen, cap the class-size cap and
    attempts the number of greedy attempts used.
    """

    def __init__(self, best: int, cap: int, attempts: int):
        # the fields are the args, so a pickled copy rebuilds the same error
        super().__init__(best, cap, attempts)
        self.best = best
        self.cap = cap
        self.attempts = attempts

    def __str__(self):
        return (
            f"best class size {self.best} > cap {self.cap} "
            f"after {self.attempts} attempts"
        )


# errors that signal "ran out of randomized attempts" rather than bad input
EXHAUSTION_ERRORS = (ResampleCapExceeded, RetriesExhausted)
