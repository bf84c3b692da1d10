"""Tiny numeric expression trees for aggregation and value filters.

Aggregates such as TPC-H Q6's ``SUM(l_extendedprice * l_discount)`` need
arithmetic over the *values* behind OID columns.  Expressions are evaluated
against a :class:`~repro.engine.bindings.BindingTable` with the help of the
context's dictionary (its value bridge,
:meth:`~repro.model.TermDictionary.numeric_column`); OID columns are decoded
to floats on demand, already-numeric (float64) columns are used as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..errors import ExecutionError
from .bindings import BindingTable


class Expression:
    """Base class of numeric expressions over binding-table rows."""

    def evaluate(self, table: BindingTable, dictionary) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def variables(self) -> set[str]:
        return set()

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class NumericVar(Expression):
    """The numeric value of a (possibly OID) column."""

    name: str

    def evaluate(self, table: BindingTable, dictionary) -> np.ndarray:
        column = table.column(self.name)
        if column.dtype == np.float64:
            return column
        return dictionary.numeric_column(column)

    def variables(self) -> set[str]:
        return {self.name}

    def describe(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class NumericConst(Expression):
    """A numeric constant."""

    value: float

    def evaluate(self, table: BindingTable, dictionary) -> np.ndarray:
        return np.full(table.num_rows, float(self.value), dtype=np.float64)

    def describe(self) -> str:
        return repr(self.value)


_BINARY_OPS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic combination of two expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ExecutionError(f"unsupported arithmetic operator {self.op!r}")

    def evaluate(self, table: BindingTable, dictionary) -> np.ndarray:
        left = self.left.evaluate(table, dictionary)
        right = self.right.evaluate(table, dictionary)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _BINARY_OPS[self.op](left, right)

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def describe(self) -> str:
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output column: ``alias = func(expression)``."""

    func: str
    expression: Expression
    alias: str

    _FUNCS = ("sum", "count", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func not in self._FUNCS:
            raise ExecutionError(f"unsupported aggregate function {self.func!r}")

    def compute(self, values: np.ndarray) -> float:
        if self.func == "count":
            return float(len(values))
        if len(values) == 0:
            return 0.0 if self.func == "sum" else float("nan")
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return 0.0 if self.func == "sum" else float("nan")
        if self.func == "sum":
            return float(finite.sum())
        if self.func == "avg":
            return float(finite.mean())
        if self.func == "min":
            return float(finite.min())
        return float(finite.max())

    def describe(self) -> str:
        return f"{self.alias}={self.func}({self.expression.describe()})"
