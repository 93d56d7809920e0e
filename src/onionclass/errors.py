"""Exception types raised by the public API."""


class OnionError(Exception):
    """Base class for all errors raised by this package."""


class FormatMismatch(OnionError):
    """Amplitude count does not match the product of the format entries."""


class ZeroState(OnionError):
    """The zero tensor is not a state (states are rays)."""


class BadDimension(OnionError):
    """A party dimension below 2 was supplied."""


class BadCut(OnionError):
    """A bipartite cut must be a nonempty proper subset of the parties."""


class NotBipartite(OnionError):
    """Operation requires exactly two parties."""


class SizeMismatch(OnionError):
    """Operator or product-vector sizes do not match the tensor format."""


class WrongFormat(OnionError):
    """Operation is defined for a different tensor format."""


class UnsupportedFormat(OnionError):
    """No evaluation rule is implemented for this format."""


class NotInSection(OnionError):
    """State is not inside the tangent section the operation expects."""


class FamilyMismatch(OnionError):
    """Class labels belong to incompatible format families."""


class NoCanonicalRepresentative(OnionError):
    """The class carries continuous parameters and has no single representative."""


class EmptyEnsemble(OnionError):
    """An ensemble needs at least one member."""


class DocumentInvalid(OnionError):
    """A JSON document does not match the expected schema."""
