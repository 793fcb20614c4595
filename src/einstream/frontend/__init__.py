"""Program text format: AST, parser, canonical printer, validation."""

from .parser import parse_program
from .printer import render_program
from .program import (
    Access,
    Bin,
    Call,
    EinsumProgram,
    Expression,
    Factor,
    Literal,
    NormExpr,
    NormTerm,
    RegionSpec,
    ScheduleSpec,
    TensorDecl,
    ValidatedProgram,
    apply_pointwise,
    apply_pointwise_array,
    normalize,
    render_body,
    validate_program,
)

__all__ = [
    "Access",
    "Bin",
    "Call",
    "EinsumProgram",
    "Expression",
    "Factor",
    "Literal",
    "NormExpr",
    "NormTerm",
    "RegionSpec",
    "ScheduleSpec",
    "TensorDecl",
    "ValidatedProgram",
    "apply_pointwise",
    "apply_pointwise_array",
    "normalize",
    "parse_program",
    "render_body",
    "render_program",
    "validate_program",
]
