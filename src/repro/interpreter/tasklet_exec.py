"""Sandboxed execution of tasklet code.

Tasklet code is a block of Python statements operating on its connector
names.  Inputs are bound as local variables, the code runs in a restricted
namespace (NumPy, ``math`` and a small set of builtins), and outputs are read
back from the namespace by connector name.

Compiled code objects are cached per code string for the whole process, so
neither executing the same tasklet for millions of map iterations nor
preparing the many cutouts of one workload recompiles it.  The compiled
backend's generated drivers share the same statement memo
(:func:`compile_code`): equal driver sources compile once.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["TASKLET_GLOBALS", "compile_code", "compile_expression"]

_SAFE_BUILTINS = {
    "abs": abs,
    "min": min,
    "max": max,
    "sum": sum,
    "len": len,
    "range": range,
    "int": int,
    "float": float,
    "bool": bool,
    "round": round,
    "enumerate": enumerate,
    "zip": zip,
    "pow": pow,
}

#: The globals every tasklet runs in.
TASKLET_GLOBALS = {"__builtins__": _SAFE_BUILTINS, "np": np, "numpy": np, "math": math}

_expr_cache: Dict[str, Any] = {}
_code_cache: Dict[Tuple[str, str], Any] = {}


def compile_expression(expr: str):
    """Compile (and cache) a Python expression string."""
    code = _expr_cache.get(expr)
    if code is None:
        code = compile(expr, "<expr>", "eval")
        _expr_cache[expr] = code
    return code


def compile_code(source: str, filename: str = "<tasklet>"):
    """Compile (and cache) a block of statements: by default a tasklet's.

    Threads may race on a first compile; both produce equal code objects
    and one store wins, which is harmless.  Code objects are immutable, so
    sharing one across programs shares no runtime state."""
    key = (source, filename)
    obj = _code_cache.get(key)
    if obj is None:
        obj = _code_cache[key] = compile(source, filename, "exec")
    return obj
