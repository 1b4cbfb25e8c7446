"""Exception types shared across the package, and the three argument checks
every public function uses: check_real for real numbers, check_int for
integers and check_type for class and enum arguments."""

import math
import sys
from decimal import Decimal


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class EvaluationError(ArithmeticError):
    """A numerical evaluation could not produce a meaningful result."""


def check_real(name: str, x, lo: float = -math.inf, hi: float = math.inf, *,
               lo_open: bool = False, hi_open: bool = False) -> float:
    """x as a float if it is a real number (not a bool) in the interval from
    lo to hi, each end closed unless marked open; NaN is never inside, nor
    an int beyond the float range."""
    if (isinstance(x, (int, float)) and not isinstance(x, bool)
            and (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)
            and (isinstance(x, float) or abs(x) <= sys.float_info.max)):
        return float(x)
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        # Decimal counts the digits; str() refuses an int past 4300 digits
        raise DomainError(f"{name} must be a real number in the float range, "
                          f"got an int of {Decimal(x).adjusted() + 1} digits")
    interval = f"{'(' if lo_open else '['}{lo!r}, {hi!r}{')' if hi_open else ']'}"
    raise DomainError(f"{name} must be a real number in {interval}, got {x!r}")


def check_int(name: str, n, lo: int) -> int:
    """n if it is an integer (not a bool) of at least lo."""
    if isinstance(n, int) and not isinstance(n, bool) and n >= lo:
        return n
    raise DomainError(f"{name} must be an integer >= {lo}, got {n!r}")


def check_type(name: str, value, cls: type):
    """value if it is an instance of cls."""
    if isinstance(value, cls):
        return value
    raise DomainError(f"{name} must be of type {cls.__name__}, got {value!r}")
