"""Exception hierarchy shared across the package."""


class StochGMError(Exception):
    """Base class for all stochgm errors."""


class DataError(StochGMError):
    """Invalid or inconsistent input data (CLI exit code 2)."""


class NumericalError(StochGMError):
    """Numerical failure during computation (CLI exit code 3)."""


# --- catalog ingestion -------------------------------------------------------

class MalformedHeader(DataError):
    """AT2 header does not contain a recognizable NPTS/DT line."""


class CountMismatch(DataError):
    """Declared NPTS differs from the number of parsed samples."""


class NonFiniteSample(DataError):
    """Acceleration series contains NaN or infinite values."""


class ManifestError(DataError):
    """Catalog manifest is malformed or references unreadable files."""


# --- simulation --------------------------------------------------------------

class NoSolution(NumericalError):
    """Modulator targets are mutually infeasible for the gamma family."""


class UnstableDiscretization(NumericalError):
    """Time step too coarse for the filter frequencies in play."""


# --- spectra and statistics --------------------------------------------------

class DegenerateRealization(DataError):
    """A realization is identically zero, so log Sa is undefined."""


class ZeroSpread(NumericalError):
    """Simulated spectra have (numerically) zero spread at a match point."""


class TooFewRecords(DataError):
    """Not enough records for the requested statistic."""


class ZeroVarianceColumn(DataError):
    """A log-Sa column has zero variance; correlation undefined."""


class DegenerateRecord(DataError):
    """Record has zero Arias intensity."""


# --- regression --------------------------------------------------------------

class RankDeficient(NumericalError):
    """Design matrix is not full column rank."""


# --- parameter distributions -------------------------------------------------

class OutOfSupport(DataError):
    """Samples fall outside the support of the requested family."""


class DegenerateSample(DataError):
    """Sample has zero variance; no distribution can be fitted."""
