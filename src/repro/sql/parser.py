"""Parser for the SQL SELECT subset exposed over the emergent schema.

Supported grammar::

    SELECT select_item (',' select_item)*
    FROM table [alias] (JOIN table [alias] ON qual_col '=' qual_col)*
    [WHERE predicate (AND predicate)*]
    [GROUP BY qual_col (',' qual_col)*]
    [ORDER BY qual_col [ASC|DESC] (',' ...)*]
    [LIMIT n]

    select_item := qual_col | FUNC '(' arithmetic ')' [AS name] | '*'
    predicate   := qual_col op constant          (op: =, <>, !=, <, <=, >, >=)
    constant    := number | 'string' | DATE 'yyyy-mm-dd' | TRUE | FALSE
    qual_col    := [alias '.'] column

The parser produces a :class:`SqlQuery` AST; translation to physical plans
lives in :mod:`repro.sql.engine`.  A WHERE constant is read as the literal
it compares with (or, for a constant the plan cache lifted, as a
:class:`~repro.planner.Param` that reads it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ParseError
from ..model import Literal
from ..model.terms import XSD_BOOLEAN, XSD_DATE, XSD_DECIMAL, XSD_INTEGER
from ..planner import Param

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<STRING>'(?:[^']|'')*')
  | (?P<NUMBER>[+-]?\d+(?:\.\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><>|<=|>=|!=|[=<>])
  | (?P<PUNCT>[().,*/+-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class ColumnRef:
    """A possibly table-qualified column reference."""

    column: str
    table: Optional[str] = None

    def describe(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class SqlPredicate:
    """``column op constant``."""

    column: ColumnRef
    op: str
    value: Union[Literal, Param]
    """The constant as the literal it compares with."""


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry: either a column or an aggregate expression."""

    column: Optional[ColumnRef] = None
    aggregate: Optional[str] = None
    expression: Optional[object] = None  # nested ('op', left, right) / ColumnRef / number
    alias: Optional[str] = None

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if self.column is not None:
            return self.column.column
        return (self.aggregate or "expr").lower()


@dataclass(frozen=True)
class SqlJoin:
    """``JOIN table alias ON left = right``."""

    table: str
    alias: str
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class OrderItem:
    column: ColumnRef
    descending: bool = False


@dataclass
class SqlQuery:
    """A parsed SQL SELECT statement."""

    select_items: List[SelectItem] = field(default_factory=list)
    select_star: bool = False
    base_table: str = ""
    base_alias: str = ""
    joins: List[SqlJoin] = field(default_factory=list)
    predicates: List[SqlPredicate] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int) -> None:
        self.kind = kind
        self.text = text
        self.position = position


_KEYWORDS = {"select", "from", "where", "and", "join", "on", "group", "order", "by",
             "limit", "as", "asc", "desc", "date", "true", "false", "sum", "count",
             "avg", "min", "max", "inner"}


def parse_sql(text: str, slots: Optional[Dict[int, Tuple[int, int]]] = None) -> SqlQuery:
    """Parse a SQL SELECT statement (subset) into a :class:`SqlQuery`.

    ``slots`` are the plan cache's lifted constants
    (:meth:`~repro.planner.PlanCache.slots`): a WHERE constant that is
    exactly one of them is read as a :class:`~repro.planner.Param` of its
    slot.
    """
    return _SqlParser(text, slots).parse()


def _number_literal(text: str) -> Literal:
    """A NUMBER token's literal: an integer without a point, else a decimal."""
    value = float(text)
    if value.is_integer() and "." not in text:
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    return Literal(repr(value), datatype=XSD_DECIMAL)


def _string_literal(text: str) -> Literal:
    """A quoted STRING token's literal."""
    return Literal(text[1:-1].replace("''", "'"))


def _date_literal(text: str) -> Literal:
    """The literal of ``DATE`` followed by a quoted STRING token."""
    try:
        return Literal(date.fromisoformat(text[1:-1]).isoformat(), datatype=XSD_DATE)
    except ValueError as exc:
        raise ParseError(f"SQL: bad DATE {text}: {exc}") from None


class _SqlParser:
    def __init__(self, text: str, slots: Optional[Dict[int, Tuple[int, int]]] = None) -> None:
        self.text = text
        self.tokens = self._tokenize(text)
        self.index = 0
        self.slots = slots or {}

    def _tokenize(self, text: str) -> List[_Token]:
        tokens: List[_Token] = []
        position = 0
        while position < len(text):
            match = _TOKEN_RE.match(text, position)
            if match is None:
                raise ParseError(f"unexpected character {text[position]!r} in SQL")
            kind = match.lastgroup or ""
            value = match.group()
            position = match.end()
            if kind == "WS":
                continue
            tokens.append(_Token(kind, value, match.start()))
        return tokens

    # -- helpers -------------------------------------------------------------------

    def _error(self, message: str) -> ParseError:
        return ParseError(f"SQL: {message}")

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise self._error("unexpected end of statement")
        self.index += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "IDENT" and token.text.lower() == word:
            self.index += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            found = self.peek().text if self.peek() else "<eof>"
            raise self._error(f"expected {word.upper()}, found {found!r}")

    def accept_punct(self, char: str) -> bool:
        token = self.peek()
        if token is not None and token.kind in ("PUNCT", "OP") and token.text == char:
            self.index += 1
            return True
        return False

    # -- grammar ---------------------------------------------------------------------

    def parse(self) -> SqlQuery:
        query = SqlQuery()
        self.expect_keyword("select")
        self._parse_select_list(query)
        self.expect_keyword("from")
        query.base_table, query.base_alias = self._parse_table_ref()
        while self.accept_keyword("join") or (self.accept_keyword("inner") and self.expect_keyword("join") is None):
            query.joins.append(self._parse_join())
        if self.accept_keyword("where"):
            query.predicates.append(self._parse_predicate())
            while self.accept_keyword("and"):
                query.predicates.append(self._parse_predicate())
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            query.group_by.append(self._parse_column_ref())
            while self.accept_punct(","):
                query.group_by.append(self._parse_column_ref())
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            query.order_by.append(self._parse_order_item())
            while self.accept_punct(","):
                query.order_by.append(self._parse_order_item())
        if self.accept_keyword("limit"):
            token = self.next()
            if token.kind != "NUMBER":
                raise self._error("LIMIT expects a number")
            query.limit = int(float(token.text))
        if self.peek() is not None and not (self.peek().kind == "PUNCT" and self.peek().text == ";"):
            raise self._error(f"unexpected trailing token {self.peek().text!r}")
        return query

    def _parse_select_list(self, query: SqlQuery) -> None:
        if self.accept_punct("*"):
            query.select_star = True
            return
        query.select_items.append(self._parse_select_item())
        while self.accept_punct(","):
            query.select_items.append(self._parse_select_item())

    def _parse_select_item(self) -> SelectItem:
        token = self.peek()
        if token is not None and token.kind == "IDENT" and token.text.lower() in ("sum", "count", "avg", "min", "max"):
            func = self.next().text.lower()
            if not self.accept_punct("("):
                raise self._error(f"expected '(' after {func.upper()}")
            expression = self._parse_arithmetic()
            if not self.accept_punct(")"):
                raise self._error("expected ')' closing the aggregate")
            alias = None
            if self.accept_keyword("as"):
                alias = self.next().text
            return SelectItem(aggregate=func, expression=expression, alias=alias)
        column = self._parse_column_ref()
        alias = None
        if self.accept_keyword("as"):
            alias = self.next().text
        return SelectItem(column=column, alias=alias)

    def _parse_arithmetic(self):
        node = self._parse_arith_term()
        while True:
            token = self.peek()
            if token is not None and token.kind in ("PUNCT", "OP") and token.text in ("+", "-", "*", "/"):
                op = self.next().text
                right = self._parse_arith_term()
                node = (op, node, right)
            else:
                return node

    def _parse_arith_term(self):
        token = self.peek()
        if token is None:
            raise self._error("unexpected end of expression")
        if token.kind == "PUNCT" and token.text == "(":
            self.next()
            inner = self._parse_arithmetic()
            if not self.accept_punct(")"):
                raise self._error("expected ')'")
            return inner
        if token.kind == "NUMBER":
            return float(self.next().text)
        if token.kind == "IDENT" and token.text.lower() not in _KEYWORDS:
            return self._parse_column_ref()
        raise self._error(f"unexpected token {token.text!r} in expression")

    def _parse_table_ref(self) -> tuple[str, str]:
        name_token = self.next()
        if name_token.kind != "IDENT":
            raise self._error("expected a table name")
        table = name_token.text
        alias = table
        nxt = self.peek()
        if nxt is not None and nxt.kind == "IDENT" and nxt.text.lower() not in _KEYWORDS:
            alias = self.next().text
        return table, alias

    def _parse_join(self) -> SqlJoin:
        table, alias = self._parse_table_ref()
        self.expect_keyword("on")
        left = self._parse_column_ref()
        op_token = self.next()
        if op_token.text != "=":
            raise self._error("JOIN conditions must be equality comparisons")
        right = self._parse_column_ref()
        return SqlJoin(table=table, alias=alias, left=left, right=right)

    def _parse_predicate(self) -> SqlPredicate:
        column = self._parse_column_ref()
        op_token = self.next()
        if op_token.kind != "OP":
            raise self._error(f"expected a comparison operator, found {op_token.text!r}")
        op = "!=" if op_token.text == "<>" else op_token.text
        return SqlPredicate(column=column, op=op, value=self._parse_constant())

    def _parse_constant(self) -> Union[Literal, Param]:
        token = self.next()
        if token.kind == "NUMBER":
            read = _number_literal
        elif token.kind == "STRING":
            read = _string_literal
        elif token.kind == "IDENT" and token.text.lower() == "date":
            token = self.next()
            if token.kind != "STRING":
                raise self._error("DATE expects a quoted 'yyyy-mm-dd' value")
            read = _date_literal
        elif token.kind == "IDENT" and token.text.lower() in ("true", "false"):
            return Literal(token.text.lower(), datatype=XSD_BOOLEAN)
        else:
            raise self._error(f"expected a constant, found {token.text!r}")
        literal = read(token.text)
        slot, end = self.slots.get(token.position, (None, None))
        return Param(slot, read) if end == token.position + len(token.text) else literal

    def _parse_column_ref(self) -> ColumnRef:
        first = self.next()
        if first.kind != "IDENT":
            raise self._error(f"expected a column name, found {first.text!r}")
        if self.accept_punct("."):
            second = self.next()
            if second.kind != "IDENT":
                raise self._error("expected a column name after '.'")
            return ColumnRef(column=second.text, table=first.text)
        return ColumnRef(column=first.text)

    def _parse_order_item(self) -> OrderItem:
        column = self._parse_column_ref()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        elif self.accept_keyword("asc"):
            descending = False
        return OrderItem(column=column, descending=descending)
