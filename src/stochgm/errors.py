"""The two failure kinds the CLI reports, one exit code each."""


class DataError(Exception):
    """Invalid or inconsistent input data (CLI exit code 2)."""


class NumericalError(Exception):
    """Numerical failure during computation (CLI exit code 3)."""
