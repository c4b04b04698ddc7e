"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid or inconsistent user-supplied data; the CLI exits 2 on it.
    A solve that cannot be used is ``lp.SolverError`` (exit 4)."""
