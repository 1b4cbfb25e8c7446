"""Exception types shared across the package, the three argument checks
every public function uses (check_real for reals, check_int for integers,
check_type for classes and enums), shown for a bad value in their messages,
and Record, the base of the package's immutable records, with replace."""

import math
import operator
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
        raise DomainError(f"{name} must be a real number in the float range, got {shown(x)}")
    interval = f"{'(' if lo_open else '['}{lo!r}, {hi!r}{')' if hi_open else ']'}"
    raise DomainError(f"{name} must be a real number in {interval}, got {shown(x)}")


def check_int(name: str, n, lo: int, hi: float = math.inf) -> int:
    """n if it is an integer (not a bool) from lo to hi."""
    if isinstance(n, int) and not isinstance(n, bool) and lo <= n <= hi:
        return n
    bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    raise DomainError(f"{name} must be an integer {bound}, got {shown(n)}")


def check_type(name: str, value, cls: type):
    """value if it is an instance of cls."""
    if isinstance(value, cls):
        return value
    raise DomainError(f"{name} must be of type {cls.__name__}, got {shown(value)}")


def shown(value) -> str:
    """value's repr for a message, but for an int past the float range its digit
    count: repr refuses an int of over 4,300 digits, and Decimal counts them."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"an int of {Decimal(value).adjusted() + 1} digits"
    return repr(value)


class Record:
    """Base of an immutable record.  The fields are the subclass's class
    annotations, in order; a class attribute of a field's name is its
    default.  Fields are taken by position or keyword, then __post_init__
    may check them and normalise them with object.__setattr__.  After that
    the record is frozen; equality and hash go by class and fields, and the
    hash is computed once, when it is first asked for."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        # (class, *fields): the key of equality and hash, a tuple for any field count
        cls._key = operator.attrgetter("__class__", *cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__, not __dict__: a dict made on demand slows every read
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order: args by position, then kwargs by name
        (none of them a field args gave), then the defaults."""
        fields = cls._fields
        values = cls._defaults | dict(zip(fields, args)) | kwargs
        if len(args) > len(fields) or kwargs.keys() - set(fields[len(args):]) or len(values) < len(fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}; got {len(args)} "
                            f"by position and {', '.join(kwargs) or 'none'} by name")
        return [values[name] for name in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # made once, on first use: a MeanKind is _columns_fn's cache key on
            # every evaluate_mean and mean_shape call; most records are never hashed
            object.__setattr__(self, "_hash", hash(self._key(self)))
            return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={shown(getattr(self, name))}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through the constructor, so the checks run and the hash is
        # computed in the process that loads it
        return self.__class__, self._key(self)[1:]


def replace(record: Record, **changes) -> Record:
    """A new record of record's class with the named fields changed; the
    class's checks run on the new values."""
    check_type("record", record, Record)
    return record.__class__(**{name: getattr(record, name) for name in record._fields} | changes)
