"""Error taxonomy shared across the compiler and simulator."""

from __future__ import annotations


class EinstreamError(Exception):
    """Base class for all diagnostics raised by this package."""


# --- tensor construction -------------------------------------------------


class TensorError(EinstreamError):
    pass


class DuplicateCoordinate(TensorError):
    pass


class CoordinateOutOfBounds(TensorError):
    pass


class IllegalFormatCombination(TensorError):
    pass


# --- frontend ------------------------------------------------------------


class FrontendError(EinstreamError):
    pass


class ParseError(FrontendError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownTensor(FrontendError):
    pass


class ArityMismatch(FrontendError):
    pass


class NonSSA(FrontendError):
    pass


# --- fusion / scheduling -------------------------------------------------


class ScheduleError(EinstreamError):
    pass


class UnsatisfiableOrder(ScheduleError):
    """Requested dataflow order conflicts with the partial-order graph."""


class UnsupportedSchedule(ScheduleError):
    """Schedule is valid but outside the implemented lowering surface."""


class IndivisibleExtent(ScheduleError):
    """A block edge does not divide the extent it tiles."""


class IncompatibleBlocks(ScheduleError):
    """Tensors sharing an index disagree on its block edge."""


class PartialBlock(ScheduleError):
    """A blocked input has a stored block that is not full, and its region
    has an op that would take the block's padding for stored zeros."""


# --- dataflow graph / simulator ------------------------------------------


class GraphError(EinstreamError):
    pass


class MalformedStream(EinstreamError):
    """A token stream violated the stream grammar or joiner alignment."""


class RepeatUnderflow(EinstreamError):
    """Repeat node exhausted its data stream before its control stream."""


class Deadlock(EinstreamError):
    """Simulation reached global quiescence before all writers saw Done."""
