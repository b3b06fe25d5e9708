"""Exact toolkit for compiling quantum convolutional stabilizer codes into
shift-invariant, finite-depth Clifford encoders, with finite-window
verification."""

from .errors import (
    ExponentOverflowError,
    LoopLimitError,
    NonClearableError,
    ParseError,
    PreconditionError,
    WindowTooSmallError,
)
from .gates import Circuit, GateTemplate, apply, apply_circuit, depth_schedule, reverse
from .poly import LaurentPoly, Poly
from .smith import SmithDecomposition, smith
from .stabilizer import (
    StabilizerMatrix,
    check_symplectic,
    from_f4,
    params,
    parse_stabilizer,
)
from .synthesis import SynthesisResult, classify, synthesize
from .verify import conjugate, propagation_report, verify_encoder

__all__ = [
    "ExponentOverflowError",
    "LoopLimitError",
    "NonClearableError",
    "ParseError",
    "PreconditionError",
    "WindowTooSmallError",
    "Circuit",
    "GateTemplate",
    "apply",
    "apply_circuit",
    "depth_schedule",
    "reverse",
    "LaurentPoly",
    "Poly",
    "SmithDecomposition",
    "smith",
    "StabilizerMatrix",
    "check_symplectic",
    "from_f4",
    "params",
    "parse_stabilizer",
    "SynthesisResult",
    "classify",
    "synthesize",
    "conjugate",
    "propagation_report",
    "verify_encoder",
]
