"""Exception taxonomy shared by all wulff_lab modules.

Every error raised by the library derives from :class:`WulffLabError`, so
callers (including the CLI) can distinguish library failures from genuine
bugs with a single ``except`` clause; a parameter out of its range raises
:class:`InadmissibleParams`, whichever module checks it.
"""

from __future__ import annotations


class WulffLabError(Exception):
    """Base class for all library errors."""


class InadmissibleParams(WulffLabError):
    """A parameter (an exponent, order, tolerance, radius, index or family
    name) lies outside its admissible range: in every module, the one error."""


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
    """A field has the wrong kind or shape for its use, or two fields passed
    together do not match."""


# ---------------------------------------------------------------------------
# function_spaces


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


class QuasiIncreasingViolation(WulffLabError):
    """A test function fails its declared quasi-monotonicity sandwich."""


class InsufficientRadii(WulffLabError):
    """Too few resolvable radii for a decay-exponent fit."""


# ---------------------------------------------------------------------------
# cli


class ConfigError(WulffLabError):
    """A run configuration (config file or command-line flags) is malformed,
    violates a precondition, or sets a value that nothing would read."""
