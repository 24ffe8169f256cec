"""The recursive-descent parser: an independent reference for :func:`parse`.

This is the parser the library had before its one loop over two stacks: a
method per level of precedence, one frame or more per level of nesting.
It shares the tokenizer, the variable names and the tree classes with
:mod:`bundleflow.expressions`, so the tests compare the trees and the
errors of the two parsers text for text.
"""

from bundleflow.errors import ExprSyntaxError
from bundleflow.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Neg,
    Node,
    Pow,
    Var,
    _Token,
    _tokenize,
    _variable_index,
)

# the library's bound on nesting, which the tests compare against
_MAX_NESTING = 50


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.dim = dim
        self.i = 0
        self.nesting = 0  # levels open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.pos)
        self.advance()

    def nested(self, parse, pos: int):
        """``parse()`` one level deeper, a level opened at byte ``pos``."""
        if self.nesting == _MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nests too deeply: more than {_MAX_NESTING} levels of"
                " parentheses, calls or signs", pos)
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        return node

    def parse(self) -> Node:
        node = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expression(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            return Neg(self.nested(self.unary, self.advance().pos))
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.integer_exponent())
        return node

    def integer_exponent(self) -> int:
        # the grammar deliberately restricts ^ to literal integer exponents
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.nested(self.integer_exponent, tok.pos)
            self.expect_op(")")
            return value
        sign = 1
        while tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -sign
            tok = self.peek()
        if tok.kind != "num":
            raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
        value = float(tok.text)
        if not value.is_integer():
            raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
        self.advance()
        return sign * int(value)

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.nested(self.expression, tok.pos)
                self.expect_op(")")
                return Call(tok.text, arg)
            return Var(_variable_index(tok.text, self.dim, tok.pos))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.nested(self.expression, tok.pos)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos,
        )


def parse(source: str, dim: int) -> Node:
    """Parse ``source`` into an immutable expression tree for a dim-chart."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    if dim < 1:
        raise ValueError(f"chart dimension must be >= 1, got {dim}")
    return _Parser(_tokenize(source), dim).parse()
