"""Exception hierarchy shared by all corrlab modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
one-line diagnostics (``error: code=<CODE> <message>``) and map failures to
exit statuses deterministically.
"""


class CorrlabError(Exception):
    """Base class for all corrlab computation errors."""

    code = "ERROR"


class RangeError(CorrlabError):
    """A requested index or shift falls outside the table's covered range."""

    code = "RANGE"


class BudgetExceeded(CorrlabError):
    """A quadratic-cost oracle was asked to run above its configured cap."""

    code = "BUDGET"


class CapExceeded(CorrlabError):
    """Exhaustive search requested beyond the configured size cap."""

    code = "CAP"


class DegenerateSum(CorrlabError):
    """A ratio is undefined because its normalizing sum vanishes."""

    code = "DEGENERATE"


class ZeroCorrelation(CorrlabError):
    """A positivity hypothesis fails: the correlation at this shift is zero."""

    code = "ZEROCORR"


class UnsupportedKind(CorrlabError):
    """The operation has no defined semantics for this function kind."""

    code = "UNSUPPORTED"


class UnknownClaim(CorrlabError):
    """No claim with the given identifier is registered."""

    code = "UNKNOWNCLAIM"


class ConfigError(CorrlabError, ValueError):
    """An input value is malformed or out of range: a usage ValueError."""

    code = "CONFIG"
