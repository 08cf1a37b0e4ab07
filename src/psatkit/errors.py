"""Shared exceptions and instance-size guards."""

from __future__ import annotations

# Largest assignment count the solving paths will materialize by default.
SOLVE_COLUMN_GUARD = 65536
# Tighter default for brute-force cross-checks (verify command, oracle module).
VERIFY_COLUMN_GUARD = 4096
# Support enumeration is exponential in the row count; keep it tiny.
ORACLE_ROW_GUARD = 4


class SizeGuardError(Exception):
    """Instance needs more columns (or rows) than the active guard allows."""

    def __init__(self, count: int | str, limit: int, what: str = "columns"):
        super().__init__(f"instance needs {count} {what} but the guard allows {limit}")
        self.count = count
        self.limit = limit
        self.what = what


class InfeasibleError(Exception):
    """Raised where infeasibility cannot be reported as a plain decision value."""


class UnboundedError(Exception):
    """Objective unbounded below; impossible while the total-mass row is active."""


def check_columns(n: int, k: int, limit: int) -> int:
    """Validate n and k, returning k**n or raising past the guard.

    k**n has more than n * (k.bit_length() - 1) bits. When that is at least 64
    more than the limit's bit length, the trip is certain and is reported as
    "k^n" without computing k**n, which could take minutes or be too long to
    print; the margin keeps the exact count for small n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if n * (k.bit_length() - 1) >= limit.bit_length() + 64:
        raise SizeGuardError(f"{k}^{n}", limit)
    columns = k**n
    if columns > limit:
        raise SizeGuardError(columns, limit)
    return columns
