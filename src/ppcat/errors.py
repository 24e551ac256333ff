"""Exception types shared across the package."""


class PpcatError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PpcatError):
    pass


class NotASubspace(PpcatError):
    pass


class SortMismatch(PpcatError):
    pass


class NotAdmissible(PpcatError):
    pass


class UnsupportedRelation(PpcatError):
    pass


class AlgebraMismatch(PpcatError):
    pass


class CharacteristicTooSmall(PpcatError):
    pass


class ZeroModule(PpcatError):
    pass


class UnknownVariable(PpcatError):
    pass


class UncertifiedPair(PpcatError):
    pass


class NotValidated(PpcatError):
    pass


class InducedMapUndefined(PpcatError):
    pass


class NotSplitEndo(PpcatError):
    pass


class NotMono(PpcatError):
    pass


class IsomorphicSummands(PpcatError):
    """Two summands of an Auslander construction are isomorphic, so their
    endomorphism algebra is not basic."""

    def __init__(self, i, k):
        self.pair = (i, k)
        super().__init__("summands %d and %d are isomorphic" % (i, k))


class UsageError(PpcatError):
    """The command line does not parse: an unknown command, or an option
    missing, malformed or not known."""


class ParseError(PpcatError):
    """Syntax error with the position of the offending token."""

    def __init__(self, line, col, expected, found):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__("%d:%d: expected %s, found %r" % (line, col, expected, found))


class SortError(PpcatError):
    pass


class UnresolvedReference(PpcatError):
    pass
