"""Exception types and the size guard shared across the package."""

INDEX_GUARD = 10**7


class ParseError(ValueError):
    """Malformed hypergraph or coloring text.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InstanceTooLargeError(ValueError):
    """A call was asked to enumerate or allocate past one of its hard guards."""


def check_index_guard(count: int, what: str) -> None:
    """Raise InstanceTooLargeError when `count`, a closed form taken before anything is allocated, exceeds INDEX_GUARD."""
    if count > INDEX_GUARD:
        raise InstanceTooLargeError(f"{count} {what} exceed the index guard {INDEX_GUARD}")
