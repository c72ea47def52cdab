"""Exception hierarchy shared by all modules.

Every error carries a stable machine-greppable ``code`` that the CLI
prefixes to its one-line diagnostics.
"""


class SurfclassError(Exception):
    code = "E_GENERIC"


# --- word / file parsing ---------------------------------------------------

class MalformedTokenError(SurfclassError):
    code = "E_MALFORMED_TOKEN"

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class FileFormatError(SurfclassError):
    code = "E_FILE_FORMAT"


# --- cell complexes --------------------------------------------------------

class EdgeMultiplicityError(SurfclassError):
    code = "E_EDGE_MULTIPLICITY"

    def __init__(self, edge, count):
        super().__init__(f"edge {edge!r} occurs {count} times; must be 1 or 2")
        self.edge = edge
        self.count = count


class DisconnectedError(SurfclassError):
    code = "E_DISCONNECTED"

    def __init__(self, components):
        parts = ["{" + ", ".join(sorted(c)) + "}" for c in components]
        super().__init__("complex is not connected: " + " / ".join(parts))
        self.components = components


class EmptyFaceSetError(SurfclassError):
    code = "E_EMPTY_FACE_SET"


class BadNameError(SurfclassError):
    code = "E_BAD_NAME"


# --- rewrite moves ---------------------------------------------------------

class EdgeNotFoundError(SurfclassError):
    code = "E_EDGE_NOT_FOUND"


class FaceNotFoundError(SurfclassError):
    code = "E_FACE_NOT_FOUND"


class NameCollisionError(SurfclassError):
    code = "E_NAME_COLLISION"


class NotContractibleError(SurfclassError):
    code = "E_NOT_CONTRACTIBLE"


class BadPositionError(SurfclassError):
    code = "E_BAD_POSITION"


class NotMergeableError(SurfclassError):
    code = "E_NOT_MERGEABLE"


class InternalInvariantViolation(SurfclassError):
    """A rewrite step changed an invariant it must preserve.  Always a bug."""

    code = "E_INTERNAL"


# --- integer linear algebra ------------------------------------------------

class DimensionMismatchError(SurfclassError):
    code = "E_DIMENSION_MISMATCH"


# --- simplicial complexes --------------------------------------------------

class DegenerateTriangleError(SurfclassError):
    code = "E_DEGENERATE_TRIANGLE"


# --- classification --------------------------------------------------------

class InfeasibleInvariantsError(SurfclassError):
    code = "E_INFEASIBLE_INVARIANTS"


class BorderedNotSupportedError(SurfclassError):
    code = "E_BORDERED_NOT_SUPPORTED"


# --- plane geometry --------------------------------------------------------

class EmptySetError(SurfclassError):
    code = "E_EMPTY_SET"


class NotContractingError(SurfclassError):
    code = "E_NOT_CONTRACTING"


class UnknownPresetError(SurfclassError):
    code = "E_UNKNOWN_PRESET"


class DegenerateGeometryError(SurfclassError, ValueError):
    """Too few points, or coinciding consecutive points, for a shape."""

    code = "E_DEGENERATE_GEOMETRY"


class PointOnCurveError(SurfclassError):
    code = "E_POINT_ON_CURVE"


class RefinementLimitError(SurfclassError):
    code = "E_REFINEMENT_LIMIT"
