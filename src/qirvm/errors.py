"""Exception hierarchy shared across the VM."""


class QirVmError(Exception):
    """Base class for all qirvm errors."""


class ParseError(QirVmError):
    """Raised for any construct outside the supported IR subset.

    Carries the 1-based source position and a description of what was
    expected at that point.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}:{column}: {message}" if line else message)


class EntryPointError(QirVmError):
    """Problems locating or sizing the entry-point function."""


class NoEntry(EntryPointError):
    pass


class AmbiguousEntry(EntryPointError):
    pass


class RuntimeFault(QirVmError):
    """Raised when a shot cannot make progress (unbound SSA value, read of
    an unmeasured result, a second entry into a block, backend fault)."""


class UnknownBackend(QirVmError):
    pass
