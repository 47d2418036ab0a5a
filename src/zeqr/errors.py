"""Exception types shared across the toolkit."""


class ZeqrError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ZeqrError):
    """A file did not match its documented schema.

    Carries enough context (path, line number or offending item) to point
    at the bad input directly.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class TransportError(ZeqrError):
    """A remote backend could not be reached.

    attempts records how many tries were made before giving up.
    """

    def __init__(self, message: str, endpoint: str, attempts: int):
        self.endpoint = endpoint
        self.attempts = attempts
        super().__init__(f"{message} (endpoint={endpoint}, attempts={attempts})")


class ProtocolError(ZeqrError):
    """A backend answered, but the response violates the wire contract."""
