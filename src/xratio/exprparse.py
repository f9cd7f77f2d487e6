"""Parser and serializer glue for field/ring expressions.

Grammar (recursive descent, one token of lookahead):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' nat)?
    base   := number | 'i' | identifier | '(' expr ')'

Numbers are nonnegative integers in ASCII digits (rationals are spelled
with '/'), 'i' is the field's canonical square root of -1 and is rejected
with a position when the field has none, identifiers must be ring
variables.  The result is a RatFunc, so '/' is exact division in the
fraction field; dividing by a semantically zero subexpression is a
parse-time error with a position.
Parentheses nest at most MAX_NESTING levels deep; a deeper '(' is a parse
error at its position, well before the recursion runs out of stack.

Serialization is the inverse direction: MultiPoly.__str__ and
RatFunc.__str__ emit canonical graded-lex text that this parser accepts, so
round-tripping is an identity (tested property).
"""

from __future__ import annotations

import re

from .fields import XratioError
from .poly import Ring
from .ratfunc import RatFunc, rat


class ParseError(XratioError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


MAX_NESTING = 100  # each level costs the recursive descent four frames

# [0-9], not \d, which would also match any Unicode decimal digit; (\S) takes
# every other non-whitespace character, so finditer passes over whitespace only
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()])|(\S))")


def tokenize(text: str):
    """List of (kind, value, pos); kinds: num, ident, op, end."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        num, ident, op, bad = m.groups()
        if num:
            out.append(("num", int(num), m.start(1)))
        elif ident:
            out.append(("ident", ident, m.start(2)))
        elif op:
            out.append(("op", op, m.start(3)))
        else:
            raise ParseError(f"unexpected character {bad!r}", m.start(4))
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, tokens, ring):
        self.ring = ring
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def take(self):
        t = self.tokens[self.k]
        self.k += 1
        return t

    def op(self, ops):
        """Take the next token if it is an operator in `ops`: (it or None, pos)."""
        kind, v, pos = self.tokens[self.k]
        if kind == "op" and v in ops:
            self.k += 1
            return v, pos
        return None, pos

    def parse(self) -> RatFunc:
        f = self.expr()
        kind, v, pos = self.take()
        if kind != "end":
            raise ParseError(f"unexpected token {v!r}", pos)
        return f

    def expr(self) -> RatFunc:
        negate, _ = self.op("-")
        acc = self.term()
        if negate:
            acc = -acc
        while v := self.op("+-")[0]:
            t = self.term()
            acc = acc + t if v == "+" else acc - t
        return acc

    def term(self) -> RatFunc:
        acc = self.factor()
        while True:
            v, pos = self.op("*/")
            if v is None:
                return acc
            f = self.factor()
            if v == "*":
                acc = acc * f
            elif f.is_zero():
                raise ParseError("division by a zero expression", pos)
            else:
                acc = acc / f

    def factor(self) -> RatFunc:
        b = self.base()
        if self.op("^")[0] is None:
            return b
        kind, n, pos = self.take()
        if kind != "num":
            raise ParseError("exponent must be a nonnegative integer", pos)
        return b ** n

    def base(self) -> RatFunc:
        kind, v, pos = self.take()
        if kind == "num":
            return rat(self.ring, v)
        if kind == "ident":
            if v == "i":
                s = self.ring.field.sqrt_minus_one()
                if s is None:
                    raise ParseError(
                        f"'i' is undefined: {self.ring.field.name} has no square root of -1", pos)
                return rat(self.ring, s)
            if v not in self.ring._index:
                raise ParseError(f"unknown variable {v!r}", pos)
            return RatFunc(self.ring, self.ring.var(v))
        if kind == "op" and v == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            f = self.expr()
            close, pos = self.op(")")
            if close is None:
                raise ParseError("expected ')'", pos)
            self.depth -= 1
            return f
        if kind == "end":
            raise ParseError("unexpected end of expression", pos)
        raise ParseError(f"unexpected token {v!r}", pos)


def parse_expression(text, ring: Ring) -> RatFunc:
    """Parse `text`, or its token list from :func:`tokenize`, in `ring`."""
    return _Parser(tokenize(text) if isinstance(text, str) else text, ring).parse()
