"""Parser and serializer for the scored rule text format.

Grammar (whitespace-insensitive, ``%`` line comments):

    document  := (clause | goal_decl)*
    clause    := atom [ ":-" atom ("," atom)* ] "." [ "=" decimal ]
    goal_decl := "goal" "<-" atom ("|" atom)* "."
    atom      := symbol "(" term ("," term)* ")"
    term      := symbol | variable
    symbol    := [a-z][a-z0-9_]*
    variable  := [A-Z][A-Za-z0-9_]*
    decimal   := digits [ "." up-to-6-digits ]

A clause with no ``= <score>`` suffix is a true fact (score 1.0).  This
format is the interchange format for principle libraries, semantic-role
facts, and formalized explanation facts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from . import logic
from .logic import (
    MAX_ARITY,
    Atom,
    Constant,
    GoalSpec,
    Rule,
    Term,
    Variable,
    foundation_for_goal_predicate,
)


class RuleSyntaxError(ValueError):
    """Malformed clause text; carries a 1-based source position."""

    def __init__(self, line: int, column: int, expected: str, found: str = "") -> None:
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        detail = f", found {found}" if found else ""
        super().__init__(f"line {line}, column {column}: expected {expected}{detail}")


class ArityError(RuleSyntaxError, logic.ArityError):
    def __init__(self, line: int, column: int, arity: int) -> None:
        RuleSyntaxError.__init__(self, line, column, f"arity <= {MAX_ARITY}", f"arity {arity}")
        self.arity = arity


class ScoreRangeError(RuleSyntaxError, logic.ScoreRangeError):
    def __init__(self, line: int, column: int, score: float) -> None:
        RuleSyntaxError.__init__(self, line, column, "score in (0, 1]", repr(score))
        self.score = score


class KbParseError(ValueError):
    """Aggregated per-clause diagnostics for a whole document."""

    def __init__(self, errors: Sequence[RuleSyntaxError]) -> None:
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


@dataclass
class RuleDocument:
    """A parsed rule file: rules and goal declarations."""

    rules: tuple[Rule, ...] = ()
    goal_decls: tuple[GoalSpec, ...] = ()


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>%[^\n]*)
  | (?P<implies>:-)
  | (?P<goalarrow><-)
  | (?P<decimal>[0-9]+(?:\.[0-9]+)?)
  | (?P<symbol>[a-z][a-z0-9_]*)
  | (?P<variable>[A-Z][A-Za-z0-9_]*)
  | (?P<punct>[().,|=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(line, col, "a token", repr(text[pos]))
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise RuleSyntaxError(tok.line, tok.column, repr(want), repr(tok.text or "end of input"))
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    # -- grammar ----------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "symbol":
            self.next()
            return Constant(tok.text)
        if tok.kind == "variable":
            self.next()
            return Variable(tok.text)
        raise RuleSyntaxError(tok.line, tok.column, "a constant or variable", repr(tok.text or "end of input"))

    def atom(self) -> Atom:
        name = self.expect("symbol")
        self.expect("punct", "(")
        args = [self.term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.term())
        if len(args) > MAX_ARITY:
            raise ArityError(name.line, name.column, len(args))
        self.expect("punct", ")")
        return Atom(name.text, tuple(args))

    def score_suffix(self) -> float:
        """Optional ``= decimal`` after the clause dot; defaults to 1.0."""
        if self.peek().text != "=":
            return 1.0
        self.next()
        tok = self.expect("decimal")
        if "." in tok.text and len(tok.text.split(".", 1)[1]) > 6:
            raise RuleSyntaxError(tok.line, tok.column, "at most 6 fractional digits", tok.text)
        score = float(tok.text)
        if not (0.0 < score <= 1.0):
            raise ScoreRangeError(tok.line, tok.column, score)
        return score

    def clause(self, rule_id: str, fact_id: Optional[str] = None) -> Rule:
        head = self.atom()
        body: list[Atom] = []
        if self.peek().kind == "implies":
            self.next()
            body.append(self.atom())
            while self.peek().text == ",":
                self.next()
                body.append(self.atom())
        self.expect("punct", ".")
        score = self.score_suffix()
        return Rule(head=head, body=tuple(body), score=score, id=rule_id, fact_id=fact_id)

    def goal_decl(self) -> list[GoalSpec]:
        start = self.expect("symbol", "goal")
        self.expect("goalarrow")
        atoms = [self.atom()]
        while self.peek().text == "|":
            self.next()
            atoms.append(self.atom())
        self.expect("punct", ".")
        specs = []
        for a in atoms:
            try:
                violation = foundation_for_goal_predicate(a.predicate)
            except ValueError as exc:
                raise RuleSyntaxError(start.line, start.column, "a violate_* goal predicate", a.predicate) from exc
            specs.append(GoalSpec(violation=violation, goal_atom=a))
        return specs

    def at_goal_decl(self) -> bool:
        return self.peek().text == "goal" and self.peek(1).kind == "goalarrow"

    def skip_to_next_clause(self, error_line: int) -> None:
        """Error recovery: resync after the clause terminator or at the next line."""
        while not self.at_end():
            if self.peek().line > error_line:
                return
            tok = self.next()
            if tok.text == ".":
                if self.peek().text == "=":
                    self.next()
                    if self.peek().kind == "decimal":
                        self.next()
                return


def parse_rule(text: str, rule_id: str = "r0", fact_id: Optional[str] = None) -> Rule:
    """Parse a single clause; raises RuleSyntaxError with position on bad input.

    ``fact_id`` tags a formalized rule with the explanation fact it came from.
    """
    parser = _Parser(_tokenize(text))
    rule = parser.clause(rule_id, fact_id)
    if not parser.at_end():
        tok = parser.peek()
        raise RuleSyntaxError(tok.line, tok.column, "end of input", repr(tok.text))
    return rule


def parse_kb(text: str, id_prefix: str = "r") -> RuleDocument:
    """Parse a whole document, aggregating per-clause diagnostics.

    Duplicate identical clauses are retained; rule ids are assigned in
    document order as ``<id_prefix><index>``.
    """
    try:
        parser = _Parser(_tokenize(text))
    except RuleSyntaxError as exc:
        raise KbParseError([exc]) from exc
    rules: list[Rule] = []
    goals: list[GoalSpec] = []
    errors: list[RuleSyntaxError] = []
    index = 0
    while not parser.at_end():
        try:
            if parser.at_goal_decl():
                goals.extend(parser.goal_decl())
            else:
                rules.append(parser.clause(f"{id_prefix}{index}"))
                index += 1
        except RuleSyntaxError as exc:
            errors.append(exc)
            parser.skip_to_next_clause(exc.line)
    if errors:
        raise KbParseError(errors)
    return RuleDocument(rules=tuple(rules), goal_decls=tuple(goals))


_PLAIN_DECIMAL = re.compile(r"[0-9]+\.[0-9]{1,6}\Z")


def format_score(score: float) -> str:
    """Shortest decimal that round-trips, capped at 6 fractional digits."""
    shortest = repr(score)
    if _PLAIN_DECIMAL.match(shortest):
        return shortest
    text = f"{score:.6f}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return text


def format_rule(rule: Rule) -> str:
    head = str(rule.head)
    if rule.body:
        body = ", ".join(str(a) for a in rule.body)
        clause = f"{head} :- {body}"
    else:
        clause = head
    return f"{clause}. = {format_score(rule.score)}"


def format_goal_decl(goals: Sequence[GoalSpec]) -> str:
    alternatives = " | ".join(str(g.goal_atom) for g in goals)
    return f"goal <- {alternatives}."


def serialize(doc: RuleDocument) -> str:
    """Canonical text: one clause per line, goal declaration last."""
    lines = [format_rule(rule) for rule in doc.rules]
    if doc.goal_decls:
        lines.append(format_goal_decl(doc.goal_decls))
    return "\n".join(lines) + ("\n" if lines else "")
