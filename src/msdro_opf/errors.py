"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid or inconsistent user-supplied data; the CLI exits 2 on it
    and on every subclass below."""


class UnsupportedError(InputError):
    """A parameter combination with no implemented formula."""


class SizeError(InputError):
    """A problem instance exceeds a configured size cap."""


class ModeError(InputError):
    """An operation was called on data in the wrong mode (e.g. ragged lengths)."""


class TopologyError(InputError):
    """The network graph does not admit the requested computation."""


class ExtractionError(RuntimeError):
    """A solution is missing the primal or dual values required here."""
