"""The two exception types the package raises and acts on."""


class FreeBetaError(ValueError):
    """An input the package refuses; the CLI prints it as one error line."""


class SizeLimitExceeded(FreeBetaError):
    """An input over a size cap, refused before any work.

    ``--route all`` lists a route that raises it under "skipped".
    """
