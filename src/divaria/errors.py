"""Exception types shared across the package, and the guards that raise them."""

from pathlib import Path


class InputError(ValueError):
    """Malformed or inconsistent input (bad arity, failed precondition, parse error)."""


class ResourceError(RuntimeError):
    """A documented complexity bound was exceeded (arity, T-degree or tuple cap)."""


TUPLE_BOUND = 200_000  # the most argument tuples any check may enumerate


def guard_tuples(count: int, what: str) -> None:
    """Refuse an enumeration of more than TUPLE_BOUND tuples before it starts."""
    if count > TUPLE_BOUND:
        raise ResourceError(f"{what}: {count} tuples exceed the enumeration bound {TUPLE_BOUND}")


def read_text(path) -> str | None:
    """The UTF-8 text of the input file at path, or None if there is no such
    file; InputError if there is one that cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
