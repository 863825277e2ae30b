"""Datalog(≠) programs (Appendix B of the paper).

A rule is ``S(x) <- R1(x1) & ... & Rm(xm)`` where each body literal is a
relational atom or an inequality ``u != v``.  Every head variable must occur
in a relational body atom (safety).  A program designates a goal relation
that occurs only in the heads of goal rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ..logic.syntax import Atom, Term, Var


@dataclass(frozen=True)
class Neq:
    """The body builtin ``left != right``."""

    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"{self.left!r} != {self.right!r}"


BodyLiteral = Union[Atom, Neq]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyLiteral, ...]

    def __init__(self, head: Atom, body: Sequence[BodyLiteral]):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        bound: set[Var] = set()
        for lit in self.body:
            if isinstance(lit, Atom):
                bound.update(a for a in lit.args if isinstance(a, Var))
        head_vars = {a for a in head.args if isinstance(a, Var)}
        unsafe = head_vars - bound
        if unsafe:
            raise ValueError(
                f"unsafe rule: head variables {sorted(unsafe, key=repr)} "
                "not bound by a relational body atom")
        for lit in self.body:
            if isinstance(lit, Neq):
                for t in (lit.left, lit.right):
                    if isinstance(t, Var) and t not in bound:
                        raise ValueError(
                            f"unsafe rule: inequality variable {t!r} is not "
                            "bound by any relational body atom")

    def uses_inequality(self) -> bool:
        return any(isinstance(lit, Neq) for lit in self.body)

    def __repr__(self) -> str:
        body = " & ".join(map(repr, self.body))
        return f"{self.head!r} <- {body}"


@dataclass(frozen=True)
class Program:
    """A Datalog(≠) program with a designated goal relation."""

    rules: tuple[Rule, ...]
    goal: str = "goal"

    def __init__(self, rules: Iterable[Rule], goal: str = "goal"):
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "goal", goal)
        for idx, rule in enumerate(self.rules):
            for lit in rule.body:
                if isinstance(lit, Atom) and lit.pred == goal:
                    raise ValueError(
                        f"goal relation {goal!r} must not occur in rule bodies")
            _validate_rule_safety(rule, idx)

    def __getstate__(self) -> dict:
        # Only the fields: the engine caches its compiled join plans on
        # the program (repro.datalog.engine.compile_program), and those
        # stay in the process that built them.
        return {"rules": self.rules, "goal": self.goal}

    def is_pure_datalog(self) -> bool:
        """True if no rule uses inequality (Datalog rather than Datalog≠)."""
        return not any(rule.uses_inequality() for rule in self.rules)

    def idb_predicates(self) -> set[str]:
        """Predicates defined by rule heads (intensional)."""
        return {rule.head.pred for rule in self.rules}

    def arity(self) -> int:
        """Arity of the goal relation (0 if no goal rule)."""
        for rule in self.rules:
            if rule.head.pred == self.goal:
                return rule.head.arity
        return 0

    def __repr__(self) -> str:
        return "\n".join(repr(r) for r in self.rules)


def _validate_rule_safety(rule: Rule, idx: int) -> None:
    """Re-check rule safety at Program construction.

    ``Rule.__init__`` already enforces this, but rules that bypass it
    (unpickled state, hand-built frozen instances) would otherwise only
    fail deep inside the engine's join; rejecting them here keeps the
    failure at the API boundary with a message naming the rule.
    """
    bound: set[Var] = set()
    for lit in rule.body:
        if isinstance(lit, Atom):
            bound.update(a for a in lit.args if isinstance(a, Var))
    unsafe_head = {a for a in rule.head.args if isinstance(a, Var)} - bound
    if unsafe_head:
        raise ValueError(
            f"unsafe rule #{idx} ({rule!r}): head variables "
            f"{sorted(unsafe_head, key=repr)} not bound by a relational "
            "body atom")
    for lit in rule.body:
        if isinstance(lit, Neq):
            for t in (lit.left, lit.right):
                if isinstance(t, Var) and t not in bound:
                    raise ValueError(
                        f"unsafe rule #{idx} ({rule!r}): inequality "
                        f"variable {t!r} is not bound by any relational "
                        "body atom")


_ATOM_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*\(([^)]*)\)")


def _parse_term(text: str) -> Term:
    from ..logic.syntax import Const

    text = text.strip()
    if text.startswith("$"):
        return Const(text[1:])
    return Var(text)


def _parse_literal(text: str) -> BodyLiteral:
    text = text.strip()
    if "!=" in text:
        left, right = text.split("!=", 1)
        return Neq(_parse_term(left), _parse_term(right))
    m = _ATOM_RE.fullmatch(text)
    if not m:
        raise ValueError(f"malformed literal {text!r}")
    pred, args_text = m.groups()
    args = tuple(_parse_term(t) for t in args_text.split(",") if t.strip())
    return Atom(pred, args)


def parse_rule(text: str) -> Rule:
    """Parse ``Head(x) <- B1(x,y) & x != y & B2(y)``."""
    head_text, sep, body_text = text.partition("<-")
    if not sep:
        raise ValueError(f"missing '<-' in {text!r}")
    head = _parse_literal(head_text)
    if not isinstance(head, Atom):
        raise ValueError("rule head must be a relational atom")
    body = tuple(_parse_literal(p) for p in body_text.split("&") if p.strip())
    return Rule(head, body)


def parse_program(text: str, goal: str = "goal") -> Program:
    """Parse a program, one rule per non-empty non-comment line."""
    rules = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            rules.append(parse_rule(stripped))
    return Program(rules, goal)
