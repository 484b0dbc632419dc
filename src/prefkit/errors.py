"""Exception types raised by loaders and numeric operations."""


class PrefkitError(Exception):
    """Base class for all errors raised by this package."""


class TextFormatError(PrefkitError, ValueError):
    """A file is not UTF-8 text that splits into CSV rows."""


class CatalogError(PrefkitError, ValueError):
    """A catalog file or catalog construction is invalid."""


class MalformedRowError(CatalogError):
    pass


class DuplicateItemIdError(CatalogError):
    pass


class UnknownCategoryError(CatalogError):
    pass


class EmptyCategoryError(CatalogError):
    pass


class PreferenceFormatError(PrefkitError, ValueError):
    """A preference file or matrix is invalid."""


class WidthMismatchError(PreferenceFormatError):
    pass


class NonBinaryEntryError(PreferenceFormatError):
    pass


class DuplicateUserIdError(PreferenceFormatError):
    pass


class EmptyMatrixError(PreferenceFormatError):
    pass


class RankOutOfRangeError(PrefkitError, ValueError):
    """A truncation rank falls outside 1..min(n, m)."""
