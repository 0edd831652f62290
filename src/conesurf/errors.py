"""Exception hierarchy for surface validation and chart computations."""


class ConesurfError(Exception):
    """Base class for all domain errors."""


# ---------------------------------------------------------------------------
# surface construction / validation

class ClosureViolation(ConesurfError):
    def __init__(self, triangle, residual):
        self.triangle = triangle
        self.residual = residual
        super().__init__(f"triangle {triangle} does not close up (residual {residual:.3e})")


class OrientationViolation(ConesurfError):
    def __init__(self, triangle, area=None):
        self.triangle = triangle
        self.area = area
        super().__init__(f"triangle {triangle} has non-positive signed area ({area})")


class GluingMismatch(ConesurfError):
    def __init__(self, edge, residual):
        self.edge = edge
        self.residual = residual
        super().__init__(f"twin vectors of edge {edge} disagree (residual {residual:.3e})")


class AngleMismatch(ConesurfError):
    def __init__(self, vertex, computed, declared):
        self.vertex = vertex
        self.computed = computed
        self.declared = declared
        super().__init__(
            f"cone angle at vertex {vertex}: computed {computed!r}, declared {declared!r}")


class ForestNotTrees(ConesurfError):
    pass


class GaussBonnetViolation(ConesurfError):
    def __init__(self, total, expected):
        self.total = total
        self.expected = expected
        super().__init__(f"angle sum {total!r} != {expected!r}")


class NonIntegerGenus(ConesurfError):
    pass


class UnknownVertex(ConesurfError):
    pass


class DegenerateInput(ConesurfError):
    pass


# ---------------------------------------------------------------------------
# forests and charts

class NotErasing(ConesurfError):
    """A candidate forest fails the translation-holonomy criterion."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ForestNotErasing(NotErasing):
    pass


class PartitionUnrealizable(ConesurfError):
    pass


class InconsistentRotation(ConesurfError):
    def __init__(self, edge, expected, actual):
        self.edge = edge
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"edge {edge}: declared vectors realize rotation {actual!r}, "
            f"angle sum predicts {expected!r}")


class DimensionMismatch(ConesurfError):
    def __init__(self, computed, predicted):
        self.computed = computed
        self.predicted = predicted
        super().__init__(f"numeric rank {computed} != predicted {predicted}")


class NotInKernel(ConesurfError):
    pass


class DegenerateTriangle(ConesurfError):
    def __init__(self, triangle):
        self.triangle = triangle
        super().__init__(f"solution degenerates triangle {triangle}")


class NotSameMetric(ConesurfError):
    pass


class TransitionUndefined(ConesurfError):
    pass


# ---------------------------------------------------------------------------
# flips and segment insertion

class ForestEdge(ConesurfError):
    pass


class NotFlippable(ConesurfError):
    pass


class NonTermination(ConesurfError):
    pass


class HitsVertexEarly(ConesurfError):
    def __init__(self, vertex, parameter):
        self.vertex = vertex
        self.parameter = parameter
        super().__init__(f"segment passes through vertex {vertex} at t={parameter:.6f}")


class DoesNotTerminateAtVertex(ConesurfError):
    pass


class ExitsThroughForest(ConesurfError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"segment crosses forest edge {edge}")


class Unsupported(ConesurfError):
    pass


class NotSpanningTree(ConesurfError):
    pass


# ---------------------------------------------------------------------------
# densities

class FrameNotInKernel(ConesurfError):
    pass


class RankCaseMismatch(ConesurfError):
    pass


class EdgeNotInterior(ConesurfError):
    pass


class NotTranslationSurface(ConesurfError):
    pass


# ---------------------------------------------------------------------------
# genus-zero charts

class NotGenusZero(ConesurfError):
    pass


class TooFewVertices(ConesurfError):
    pass


class SignatureUnexpected(ConesurfError):
    def __init__(self, signature):
        self.signature = signature
        super().__init__(f"unexpected inertia {signature}")


class FrameNotTangent(ConesurfError):
    pass


class PointNotOnQ1(ConesurfError):
    pass


class MetricNotPositive(ConesurfError):
    pass
