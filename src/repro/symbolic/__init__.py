"""Symbolic integer arithmetic used by the parametric dataflow IR.

The FuzzyFlow approach hinges on *parametric* program representations: data
container sizes and access subsets are symbolic expressions over program
parameters (e.g. an ``N x N`` matrix) rather than opaque pointers.  This
subpackage provides a small, dependency-free symbolic engine:

* :mod:`repro.symbolic.expressions` -- the expression tree (symbols, integer
  constants, arithmetic, ``Min``/``Max``), evaluation and substitution.
* :mod:`repro.symbolic.parser` -- parsing Python-syntax strings into
  expressions.
* :mod:`repro.symbolic.simplify` -- constant folding and identity
  simplification.
* :mod:`repro.symbolic.ranges` -- one-dimensional ranges and multi-dimensional
  subsets with symbolic bounds, including volume, overlap and covering checks.
* :mod:`repro.symbolic.codegen` -- Python-source emission for interstate
  control-flow expressions (used by the compiled whole-program backend) and
  :mod:`ast`-based free-name extraction.
"""

from repro.symbolic.codegen import (
    ExpressionCodegenError,
    emit_interstate_expression,
    expression_names,
)
from repro.symbolic.expressions import (
    Add,
    Expr,
    FloorDiv,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    Pow,
    Symbol,
    sympify,
)
from repro.symbolic.parser import parse_expr
from repro.symbolic.ranges import Range, Subset
from repro.symbolic.simplify import simplify

__all__ = [
    "Expr",
    "Symbol",
    "Integer",
    "Add",
    "Mul",
    "Pow",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "sympify",
    "parse_expr",
    "simplify",
    "Range",
    "Subset",
    "ExpressionCodegenError",
    "emit_interstate_expression",
    "expression_names",
]
