"""Exception taxonomy for tangleflow.

Every library-raised error derives from :class:`TangleflowError` so callers can
catch one base class.  Errors carry structured attributes (offending vertex,
position in a design file, integrator snapshot) where those help diagnosis.
"""
from __future__ import annotations


class TangleflowError(Exception):
    """Base class for all tangleflow errors."""


class InvalidParameter(TangleflowError, ValueError):
    """A numeric control (integrator step sizes, horizon and tolerance,
    initial seed and gap scale, fit window) lies outside its valid range."""


class WrongKind(TangleflowError, TypeError):
    """A function made for one kind of system (entangled graph or weave) was
    handed the other kind, or a design function an object that is no design."""


# --------------------------------------------------------------------------
# model construction


class MismatchedVertexSet(TangleflowError, ValueError):
    """A per-vertex table (crossing signs, heights, planar coordinates) does
    not cover exactly the vertex set of the system it is paired with, or is
    no array of numbers at all: text, or rows of unequal lengths."""


class DisconnectedGraph(TangleflowError):
    """The quotient graph is not connected, so no periodic realization with a
    unique harmonic layout exists."""


class InvalidLattice(TangleflowError, ValueError):
    """The lattice basis is not two finite numeric 2-vectors that span the
    plane, or its entries are so large that the planar energy overflows."""


class InvalidGraph(TangleflowError, ValueError):
    """Structural defect in the quotient graph: an edge endpoint out of range,
    a non-integer endpoint or shift, a self-loop with zero shift (which
    would collapse to a point), or a crossing-sign value other than +1/-1."""


class ZeroSignEntry(TangleflowError):
    """A weave sign matrix contains a zero entry; every blue-red crossing must
    declare which thread passes over."""


class InvalidWeave(TangleflowError, ValueError):
    """A weave's thread counts are not integers, its sign matrix does not
    have one row of n_red entries per blue thread or holds a value other
    than +1/-1, or its spacing is not positive or so large that the planar
    energy overflows."""


class DegenerateSize(TangleflowError):
    """A weave was declared with a non-positive number of threads in one of
    the two families."""


class SingularSystem(TangleflowError):
    """The pinned linear system for the harmonic planar layout could not be
    solved to tolerance (should be unreachable for validated graphs)."""


class SignViolation(TangleflowError):
    """Heights disagree with the crossing signs at some vertex.

    Attributes:
        vertex: index of the first offending vertex.
    """

    def __init__(self, vertex: int, message: str | None = None):
        self.vertex = int(vertex)
        super().__init__(message or f"heights violate the crossing sign at vertex {vertex}")


# --------------------------------------------------------------------------
# topology


class IndexOutOfRange(TangleflowError, IndexError):
    """A 1-based component index lies outside 1..K."""


# --------------------------------------------------------------------------
# dynamics


class ZeroGap(TangleflowError):
    """The two height copies touch at some vertex, where the repulsive energy
    diverges.

    Attributes:
        vertex: index of the first touching vertex.
    """

    def __init__(self, vertex: int, message: str | None = None):
        self.vertex = int(vertex)
        super().__init__(message or f"zero height gap at vertex {vertex}")


class GapGuardTripped(TangleflowError):
    """A single integration step left non-finite heights, moved some gap
    below the safety floor or across zero, or raised the energy; the step
    size is too large for the current state."""


class StepUnderflow(TangleflowError):
    """Step rejection drove dt to its lower bound without finding an
    acceptable step.

    Attributes:
        t: simulated time at which integration stalled.
        dt: the step size that still failed.
    """

    def __init__(self, t: float, dt: float, message: str | None = None):
        self.t = float(t)
        self.dt = float(dt)
        super().__init__(message or f"step size underflow at t={t:.6g} (dt={dt:.6g})")


class NonFiniteHeights(TangleflowError):
    """Heights or planar coordinates handed to the flow or its energy are not
    finite, or heights handed to `make_configuration` are not real numbers."""


class InvalidInitial(TangleflowError):
    """A configuration the flow does not admit: it violates a crossing sign or
    its energy or velocity is not finite, or (from `integrate`) it is misshapen,
    not finite or has touching heights."""


# --------------------------------------------------------------------------
# analysis


class NotSymmetric(TangleflowError):
    """eigendecompose needs a non-empty, finite, real, square symmetric matrix."""


class EntangledInput(TangleflowError):
    """A separation analysis was requested for a system that is entangled and
    therefore has no drifting components to separate."""


class InsufficientSamples(TangleflowError):
    """Too few trajectory samples fall inside the requested fit window."""


class NonpositiveValue(TangleflowError):
    """A series value inside a log-log fit window is not positive."""


class UnknownComponent(TangleflowError):
    """The requested component label does not exist for this trajectory."""


class NotConverged(TangleflowError):
    """A limit comparison was requested for a trajectory that did not reach
    the convergence threshold."""


# --------------------------------------------------------------------------
# design files and output


class DesignSyntaxError(TangleflowError):
    """Tokenization/shape error in a design file.

    Attributes:
        line: 1-based line number of the offending token.
        col: 1-based column of the offending token.
    """

    def __init__(self, line: int, col: int, message: str):
        self.line = int(line)
        self.col = int(col)
        super().__init__(f"line {line}, col {col}: {message}")


class DesignSemanticError(TangleflowError):
    """The design file tokenizes but describes an inconsistent object
    (ragged sign matrix, duplicate directive, count mismatch, ...)."""


class IoError(TangleflowError):
    """Reading or writing a file failed."""


class UsageError(TangleflowError):
    """A command-line option value is out of range."""
