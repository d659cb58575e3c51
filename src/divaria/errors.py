"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input (bad arity, failed precondition, parse error)."""


class ResourceError(RuntimeError):
    """A documented complexity bound was exceeded (arity, T-degree or tuple cap)."""


TUPLE_BOUND = 200_000  # the most argument tuples any check may enumerate


def guard_tuples(count: int, what: str) -> None:
    """Refuse an enumeration of more than TUPLE_BOUND tuples before it starts."""
    if count > TUPLE_BOUND:
        raise ResourceError(f"{what}: {count} tuples exceed the enumeration bound {TUPLE_BOUND}")
