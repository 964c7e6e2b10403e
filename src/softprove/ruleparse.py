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

One grammar, two readers.  The token parser (``_Parser``) reads all of it:
documents (``parse_kb``), goal declarations, comments, and the position of
every error, with recovery.  ``parse_rule``, which reads the single clauses
of case files and formalized explanations, first tries one full match of
``_CLAUSE_RE``: a clause without comments whose atoms have at most
``MAX_ARITY`` terms.  When that matches and the score is in (0, 1], it
builds the rule from the match through the same validating constructors.
Any other text goes to the token parser, so every ``RuleSyntaxError`` comes
from the token parser alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

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

T = TypeVar("T")


class RuleSyntaxError(ValueError):
    """Malformed clause text; carries a 1-based source position."""

    def __init__(self, text: str, offset: int, message: str) -> None:
        self.offset = offset
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"line {self.line}, column {self.column}: {message}")


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


# Whitespace and comments are unnamed, so they match without a token kind;
# ``bad`` takes any character that starts no token.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]+
  | %[^\n]*
  | (?P<implies>:-)
  | (?P<goalarrow><-)
  | (?P<decimal>[0-9]+(?:\.[0-9]+)?)
  | (?P<symbol>[a-z][a-z0-9_]*)
  | (?P<variable>[A-Z][A-Za-z0-9_]*)
  | (?P<punct>[().,|=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[tuple[str, str, int]] = [  # (kind, text, offset)
            (m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text) if m.lastgroup
        ]
        for tok in self.tokens:
            if tok[0] == "bad":
                raise self.error(tok, "a token")
        self.tokens.append(("eof", "", len(text)))
        self.pos = 0

    def error(self, tok: tuple[str, str, int], expected: str, found: Optional[str] = None) -> RuleSyntaxError:
        if found is None:
            found = repr(tok[1] or "end of input")
        return RuleSyntaxError(self.text, tok[2], f"expected {expected}, found {found}")

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def expect(self, kind: str, text: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind or (text is not None and tok[1] != text):
            raise self.error(tok, repr(kind if text is None else text))
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.peek()[0] == "eof"

    def separated(self, item: Callable[[], T], separator: str) -> list[T]:
        """``item (separator item)*``."""
        items = [item()]
        while self.peek()[1] == separator:
            self.pos += 1
            items.append(item())
        return items

    # -- grammar ----------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok[0] == "symbol":
            self.pos += 1
            return Constant(tok[1])
        if tok[0] == "variable":
            self.pos += 1
            return Variable(tok[1])
        raise self.error(tok, "a constant or variable")

    def atom(self) -> Atom:
        name = self.expect("symbol")
        self.expect("punct", "(")
        args = self.separated(self.term, ",")
        if len(args) > MAX_ARITY:
            raise self.error(name, f"arity <= {MAX_ARITY}", f"arity {len(args)}")
        self.expect("punct", ")")
        return Atom(name[1], tuple(args))

    def score_suffix(self) -> float:
        """Optional ``= decimal`` after the clause dot; defaults to 1.0."""
        if self.peek()[1] != "=":
            return 1.0
        self.pos += 1
        tok = self.expect("decimal")
        if "." in tok[1] and len(tok[1].split(".", 1)[1]) > 6:
            raise self.error(tok, "at most 6 fractional digits", tok[1])
        score = float(tok[1])
        if not (0.0 < score <= 1.0):
            raise self.error(tok, "score in (0, 1]", repr(score))
        return score

    def clause(self, rule_id: str, fact_id: Optional[str] = None) -> Rule:
        head = self.atom()
        body: list[Atom] = []
        if self.peek()[0] == "implies":
            self.pos += 1
            body = self.separated(self.atom, ",")
        self.expect("punct", ".")
        score = self.score_suffix()
        return Rule(head=head, body=tuple(body), score=score, id=rule_id, fact_id=fact_id)

    def goal_decl(self) -> list[GoalSpec]:
        start = self.expect("symbol", "goal")
        self.expect("goalarrow")
        atoms = self.separated(self.atom, "|")
        self.expect("punct", ".")
        specs = []
        for a in atoms:
            try:
                violation = foundation_for_goal_predicate(a.predicate)
            except ValueError as exc:
                raise self.error(start, "a violate_* goal predicate", a.predicate) from exc
            specs.append(GoalSpec(violation=violation, goal_atom=a))
        return specs

    def at_goal_decl(self) -> bool:
        return self.peek()[1] == "goal" and self.tokens[self.pos + 1][0] == "goalarrow"

    def skip_to_next_clause(self, error_offset: int) -> None:
        """Error recovery: resync after the clause terminator or at the next line."""
        line_end = self.text.find("\n", error_offset)
        if line_end < 0:
            line_end = len(self.text)
        while not self.at_end():
            tok = self.peek()
            if tok[2] > line_end:
                return
            self.pos += 1
            if tok[1] == ".":
                if self.peek()[1] == "=":
                    self.pos += 1
                    if self.peek()[0] == "decimal":
                        self.pos += 1
                return


# A well-formed clause with no comment, as one match: atoms of at most
# ``MAX_ARITY`` terms, a score of at most 6 fractional digits.  Whitespace
# and each token class are those of ``_TOKEN_RE``; a term and a whitespace
# run share no character, so a failed match backtracks in linear time.
_WS = r"[ \t\r\n]*"
_TERM = rf"(?:[a-z][a-z0-9_]*|[A-Z][A-Za-z0-9_]*){_WS}"
_ATOM = rf"[a-z][a-z0-9_]*{_WS}\({_WS}{_TERM}(?:,{_WS}{_TERM}){{0,{MAX_ARITY - 1}}}\){_WS}"
_CLAUSE_RE = re.compile(
    rf"{_WS}{_ATOM}(?::-{_WS}{_ATOM}(?:,{_WS}{_ATOM})*)?\.{_WS}(?:={_WS}([0-9]+(?:\.[0-9]{{1,6}})?){_WS})?"
)
# In a text that ``_CLAUSE_RE`` accepts: each atom's predicate and arguments,
# and each argument.
_ATOM_PARTS_RE = re.compile(r"([a-z][a-z0-9_]*)[ \t\r\n]*\(([^)]*)\)")
_ARG_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def parse_rule(text: str, rule_id: str = "r0", fact_id: Optional[str] = None) -> Rule:
    """Parse a single clause; raises RuleSyntaxError with position on bad input.

    ``fact_id`` tags a formalized rule with the explanation fact it came from.
    A clause that ``_CLAUSE_RE`` accepts, with a score in (0, 1], is built
    from that match; any other text is read, and its error raised, by the
    token parser.
    """
    match = _CLAUSE_RE.fullmatch(text)
    score = 1.0 if match is None or match[1] is None else float(match[1])
    if match is not None and 0.0 < score <= 1.0:
        head, *body = [
            Atom(predicate, tuple([Variable(t) if t[0].isupper() else Constant(t) for t in _ARG_RE.findall(args)]))
            for predicate, args in _ATOM_PARTS_RE.findall(text)
        ]
        return Rule(head=head, body=tuple(body), score=score, id=rule_id, fact_id=fact_id)
    parser = _Parser(text)
    rule = parser.clause(rule_id, fact_id)
    if not parser.at_end():
        raise parser.error(parser.peek(), "end of input")
    return rule


def parse_kb(text: str, id_prefix: str = "r") -> RuleDocument:
    """Parse a whole document, aggregating per-clause diagnostics.

    Duplicate identical clauses are retained; rule ids are assigned in
    document order as ``<id_prefix><index>``.
    """
    try:
        parser = _Parser(text)
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
            parser.skip_to_next_clause(exc.offset)
    if errors:
        raise KbParseError(errors)
    return RuleDocument(rules=tuple(rules), goal_decls=tuple(goals))


def format_goal_decl(goals: Sequence[GoalSpec]) -> str:
    alternatives = " | ".join(str(g.goal_atom) for g in goals)
    return f"goal <- {alternatives}."


def serialize(doc: RuleDocument) -> str:
    """Canonical text: one clause per line, goal declaration last."""
    lines = [rule.text for rule in doc.rules]
    if doc.goal_decls:
        lines.append(format_goal_decl(doc.goal_decls))
    return "\n".join(lines) + ("\n" if lines else "")
