"""Recursive-descent parser for the supported SPARQL subset.

Grammar (informally)::

    query       := prologue SELECT [DISTINCT] selection WHERE '{' group '}' modifiers
    prologue    := (PREFIX name: <iri>)*
    selection   := '*' | (var | '(' FUNC '(' arith ')' AS var ')')+
    group       := (triples '.' | FILTER '(' condition ')')*
    triples     := term term term
    condition   := comparison ('&&' comparison)*
    comparison  := (var op constant) | (constant op var)
    modifiers   := [GROUP BY var+] [ORDER BY ordercond+] [LIMIT n]

Updates (see :func:`parse_update`)::

    update      := prologue statement (';' prologue statement)* [';']
    statement   := INSERT DATA '{' triples* '}'
                 | DELETE DATA '{' triples* '}'
                 | DELETE WHERE '{' triples* '}'

Terms: ``<iri>``, ``prefix:local``, ``?var``, ``"literal"`` (with optional
``@lang`` / ``^^datatype``), integers, decimals, booleans and the keyword
``a`` for ``rdf:type``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ..errors import ParseError
from ..model import IRI, Literal, Triple
from ..model.syntax import TokenStream, number_literal, resolve_iri, unescape
from ..planner import Param
from .ast import (
    AggregateExpr,
    ArithmeticExpr,
    Comparison,
    DeleteDataOp,
    DeleteWhereOp,
    InsertDataOp,
    OrderCondition,
    SelectQuery,
    TriplePattern,
    UpdateRequest,
    Variable,
)


def parse_sparql(text: str, slots: Optional[Dict[int, Tuple[int, int]]] = None) -> SelectQuery:
    """Parse a SPARQL SELECT query (subset) into a :class:`SelectQuery`.

    ``slots`` maps the offset of each constant the plan cache lifted out of
    ``text`` to its slot number and end offset
    (:meth:`~repro.planner.PlanCache.slots`): a subject, object or FILTER
    constant that is exactly one such IRIREF, string or number token is read
    as a :class:`~repro.planner.Param` of its slot.
    """
    return (_Parser(text) if slots is None else _SlottedParser(text, slots)).parse_query()


def parse_update(text: str) -> UpdateRequest:
    """Parse a SPARQL Update request (subset) into an :class:`UpdateRequest`.

    The subset covers ``INSERT DATA``, ``DELETE DATA`` and ``DELETE WHERE``,
    optionally chained with ``;``.  ``INSERT DATA`` / ``DELETE DATA`` blocks
    must be ground (no variables); ``DELETE WHERE`` accepts triple patterns
    with variables in any position but no FILTERs.

    Raises:
        ParseError: when the text is not in the supported update subset.
    """
    return _Parser(text).parse_update_request()


class _Parser(TokenStream):
    """The query and update grammar over :class:`TokenStream`'s tokens, terms
    and ``subject predicateObjectList`` production."""

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "KEYWORD" and token.text.lower() == word:
            self.index += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected keyword {word.upper()}")

    # -- grammar ------------------------------------------------------------------

    def parse_query(self) -> SelectQuery:
        query = SelectQuery()
        self._parse_prologue()
        self.expect_keyword("select")
        query.distinct = self.accept_keyword("distinct")
        self._parse_selection(query)
        self.expect_keyword("where")
        self.expect("{")
        self._parse_group(query)
        self.expect("}")
        self._parse_modifiers(query)
        if self.peek() is not None:
            raise self.error(f"unexpected trailing token {self.peek().text!r}")
        if not query.select_variables and not query.aggregates:
            query.select_variables = query.all_variables()
        return query

    def _parse_prologue(self) -> None:
        while self.read_directive():
            pass

    # -- updates ---------------------------------------------------------------

    def parse_update_request(self) -> UpdateRequest:
        request = UpdateRequest()
        self._parse_prologue()
        while True:
            request.operations.append(self._parse_update_statement())
            if self.accept(";"):
                before_prologue = self.index
                self._parse_prologue()
                if self.peek() is None:
                    if self.index != before_prologue:
                        # a prologue with no statement after it signals a
                        # truncated request — fail loudly, don't drop it
                        raise self.error("expected an update statement after the prologue")
                    break  # trailing ';' after the last statement
                continue
            break
        if self.peek() is not None:
            raise self.error(f"unexpected trailing token {self.peek().text!r}")
        return request

    def _parse_update_statement(self):
        if self.accept_keyword("insert"):
            self.expect_keyword("data")
            return InsertDataOp(self._parse_ground_block("INSERT DATA"))
        if self.accept_keyword("delete"):
            if self.accept_keyword("data"):
                return DeleteDataOp(self._parse_ground_block("DELETE DATA"))
            self.expect_keyword("where")
            return DeleteWhereOp(tuple(self._parse_pattern_block(allow_filters=False)))
        raise self.error("expected INSERT DATA, DELETE DATA or DELETE WHERE")

    def _parse_pattern_block(self, allow_filters: bool) -> List[TriplePattern]:
        """Parse a ``{ ... }`` block of triple patterns (used by updates)."""
        collector = SelectQuery()
        self.expect("{")
        while True:
            token = self.peek()
            if token is None:
                raise self.error("unterminated block (missing '}')")
            if token.kind == "PUNCT" and token.text == "}":
                break
            if token.kind == "KEYWORD" and token.text.lower() == "filter":
                if not allow_filters:
                    raise self.error("FILTER is not supported in this update form")
                self.next()
                self._parse_filter(collector)
                self.accept(".")
                continue
            self._parse_triple_block(collector)
        self.expect("}")
        return collector.patterns

    def _parse_ground_block(self, form: str) -> tuple:
        patterns = self._parse_pattern_block(allow_filters=False)
        triples = []
        for pattern in patterns:
            if pattern.variables():
                raise self.error(f"{form} requires ground triples (no variables)")
            triples.append(Triple(pattern.subject, pattern.predicate, pattern.object))
        return tuple(triples)

    def _parse_selection(self, query: SelectQuery) -> None:
        if self.accept("*"):
            return
        saw_item = False
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind == "VAR":
                query.select_variables.append(self.next().text[1:])
                saw_item = True
                continue
            if token.kind == "PUNCT" and token.text == "(":
                query.aggregates.append(self._parse_aggregate())
                saw_item = True
                continue
            break
        if not saw_item:
            raise self.error("SELECT needs at least one variable, aggregate or '*'")

    def _parse_aggregate(self) -> AggregateExpr:
        self.expect("(")
        func_token = self.next()
        if func_token.kind != "KEYWORD" or func_token.text.lower() not in ("sum", "count", "avg", "min", "max"):
            raise self.error("expected an aggregate function (SUM/COUNT/AVG/MIN/MAX)")
        func = func_token.text.lower()
        self.expect("(")
        expression = self._parse_arithmetic()
        self.expect(")")
        self.expect_keyword("as")
        alias = self.next("VAR").text[1:]
        self.expect(")")
        return AggregateExpr(func=func, expression=ArithmeticExpr(expression), alias=alias)

    def _parse_arithmetic(self):
        node = self._parse_term_arith()
        while True:
            token = self.peek()
            if token is not None and token.kind in ("PUNCT", "OP") and token.text in ("+", "-", "*", "/"):
                op = self.next().text
                right = self._parse_term_arith()
                node = (op, node, right)
            else:
                return node

    def _parse_term_arith(self):
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of arithmetic expression")
        if token.kind == "PUNCT" and token.text == "(":
            self.next()
            inner = self._parse_arithmetic()
            self.expect(")")
            return inner
        if token.kind == "VAR":
            return self.next().text[1:]
        if token.kind == "NUMBER":
            return float(self.next().text)
        raise self.error(f"unexpected token {token.text!r} in arithmetic expression")

    def _parse_group(self, query: SelectQuery) -> None:
        while True:
            token = self.peek()
            if token is None:
                raise self.error("unterminated WHERE group (missing '}')")
            if token.kind == "PUNCT" and token.text == "}":
                return
            if token.kind == "KEYWORD" and token.text.lower() == "filter":
                self.next()
                self._parse_filter(query)
                self.accept(".")
                continue
            self._parse_triple_block(query)

    def _parse_triple_block(self, query: SelectQuery) -> None:
        query.patterns.extend(self.read_triples(TriplePattern))
        self.accept(".")

    def _parse_filter(self, query: SelectQuery) -> None:
        self.expect("(")
        while True:
            query.filters.append(self._parse_comparison())
            token = self.peek()
            if token is not None and token.kind == "OP" and token.text == "&&":
                self.next()
                continue
            break
        self.expect(")")

    def _parse_comparison(self) -> Comparison:
        left = self.peek()
        if left is None:
            raise self.error("unexpected end of FILTER")
        if left.kind == "VAR":
            variable = self.next().text[1:]
            op = self._parse_comparison_op()
            value = self._parse_constant()
            return Comparison(variable=variable, op=op, value=value)
        value = self._parse_constant()
        op = self._parse_comparison_op()
        return Comparison(variable=self.next("VAR").text[1:], op=_flip_op(op), value=value)

    def _parse_comparison_op(self) -> str:
        token = self.next()
        if token.kind != "OP" or token.text not in ("=", "!=", "<", "<=", ">", ">="):
            raise self.error(f"expected a comparison operator, found {token.text!r}")
        return token.text

    def _parse_modifiers(self, query: SelectQuery) -> None:
        while True:
            if self.accept_keyword("group"):
                self.expect_keyword("by")
                while self.peek() is not None and self.peek().kind == "VAR":
                    query.group_by.append(self.next().text[1:])
            elif self.accept_keyword("order"):
                self.expect_keyword("by")
                while True:
                    token = self.peek()
                    if token is None:
                        break
                    if token.kind == "KEYWORD" and token.text.lower() in ("asc", "desc"):
                        descending = self.next().text.lower() == "desc"
                        self.expect("(")
                        query.order_by.append(OrderCondition(self.next("VAR").text[1:], descending))
                        self.expect(")")
                    elif token.kind == "VAR":
                        query.order_by.append(OrderCondition(self.next().text[1:], False))
                    else:
                        break
            elif self.accept_keyword("limit"):
                query.limit = int(float(self.next("NUMBER").text))
            else:
                return

    # -- terms ---------------------------------------------------------------------

    def term_of(self, token, position: str):
        if token.kind == "VAR":
            return Variable(token.text[1:])
        return super().term_of(token, position)

    def _parse_constant(self):
        token = self.peek()
        if token is None or token.kind == "VAR":
            raise self.error("expected a constant")
        return self.read_term("object")


class _SlottedParser(_Parser):
    """The query grammar reading the plan cache's lifted constants as
    :class:`~repro.planner.Param` s (see :func:`parse_sparql`)."""

    def __init__(self, text: str, slots: Dict[int, Tuple[int, int]]) -> None:
        super().__init__(text)
        self.slots = slots

    def read_term(self, position: str):
        token = self.peek()
        term = super().read_term(position)
        slot, end = self.slots.get(token.position, (None, None))
        if position == "predicate" or end != token.position + len(token.text):
            return term  # no lifted constant, or a predicate: it picks tables
        if token.kind == "IRIREF":
            return Param(slot, partial(_read_iri, self.base))
        if token.kind == "STRING":
            return Param(slot, partial(_read_string, term.datatype, term.language))
        return Param(slot, number_literal)


def _read_iri(base: str, text: str) -> IRI:
    iri = resolve_iri(base, text)
    if not iri:
        raise ParseError("empty IRI")
    return IRI(iri)


def _read_string(datatype: Optional[str], language: Optional[str], text: str) -> Literal:
    return Literal(unescape(text[1:-1]), datatype, language)


def _flip_op(op: str) -> str:
    flips = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
    return flips[op]
