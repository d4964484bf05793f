"""Exception taxonomy shared by all wulff_lab modules.

Every error raised by the library derives from :class:`WulffLabError`, so
callers (including the CLI) can distinguish library failures from genuine
bugs with a single ``except`` clause.
"""

from __future__ import annotations


class WulffLabError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# field_grid


class BallOutsideDomain(WulffLabError):
    """A ball used for averaging, or a sample point, is not contained in the
    grid domain."""


class BallBelowResolution(WulffLabError):
    """Ball radius is below one grid spacing; the average is meaningless."""


class GridTooCoarse(WulffLabError):
    """The grid has too few cells per axis for the requested operation."""


class MalformedHeader(WulffLabError):
    """A field file header or payload does not follow the WLF1 layout."""


class DimensionMismatch(WulffLabError):
    """Declared dimension does not match the per-axis data in a field file."""


class NonFiniteValue(WulffLabError):
    """A field contains NaN or infinite samples."""


# ---------------------------------------------------------------------------
# potential_engine


class AlphaOutOfRange(WulffLabError):
    """Potential order parameters violate their admissible range."""


class NonNegativityViolation(WulffLabError):
    """Potential inputs must be nonnegative scalar fields."""


# ---------------------------------------------------------------------------
# plaplace_solver


class NonConvergence(WulffLabError):
    """The energy minimizer exhausted its budget above tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateGrid(WulffLabError):
    """Grid has a nonpositive extent, or is too small or anisotropic for the
    solver."""


class ShapeMismatch(WulffLabError):
    """Field shapes passed to the solver are inconsistent."""


# ---------------------------------------------------------------------------
# function_spaces


class InadmissibleParams(WulffLabError):
    """Space parameters violate the admissibility region."""


class SearchRangeExhausted(WulffLabError):
    """A bracketing search failed within its range; the message names the
    bracket searched."""


class FinitenessFailure(WulffLabError):
    """An integral diverges, or overflows a float, for the supplied data."""


class NoAdmissibleBalls(WulffLabError):
    """No sampled ball fits inside the domain for a sup-type norm."""


class QuadratureFailure(WulffLabError):
    """Numerical quadrature failed to reach its accuracy target."""


# ---------------------------------------------------------------------------
# inequality_lab


class ResidualTooLarge(WulffLabError):
    """A (u, F) pair is not a discrete weak solution to tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ParameterRangeViolation(WulffLabError):
    """Verifier parameters violate the hypotheses of the tested estimate."""


class QuasiIncreasingViolation(WulffLabError):
    """A test function fails its declared quasi-monotonicity sandwich."""


class InsufficientRadii(WulffLabError):
    """Too few resolvable radii for a decay-exponent fit."""


# ---------------------------------------------------------------------------
# cli


class ConfigError(WulffLabError):
    """A run configuration (config file or command-line flags) is malformed,
    violates a precondition, or sets a value that nothing would read."""
