"""Textual parser for the affine-level IR (the printer's inverse).

Parses the subset of the textual form that :func:`repro.ir.printer.
print_module` emits for affine-level modules -- memref declarations,
params, ``affine.for``/``affine.parallel`` with composite max/min bounds,
loads/stores, arith ops, and ``polyufc.set_uncore_cap`` markers -- so
printed modules round-trip:

    parse_module(print_module(m))  ==  m   (structurally)

Useful for golden-file tests, for pasting kernels into issues, and as the
contract that the printer output is complete.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.ir.core import Buffer, ElementType, F16, F32, F64, I32, IRError, Module, Value
from repro.ir.dialects import arith
from repro.ir.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.ir.dialects.polyufc import SetUncoreCapOp
from repro.isllite import LinExpr

_TYPES: Dict[str, ElementType] = {
    "f16": F16, "f32": F32, "f64": F64, "i32": I32
}

_MODULE_RE = re.compile(r"^module @([\w.\-]+) \{$")
_MEMREF_RE = re.compile(r"^memref @([\w.\-]+) : memref<(.+)x(\w+)>$")
_PARAM_RE = re.compile(r"^param (\w+) = (-?\d+)$")
_FOR_RE = re.compile(
    r"^(affine\.for|affine\.parallel) %(\w+) = (.+) to (.+) step (\d+) \{$"
)
_LOAD_RE = re.compile(r"^%(\w+) = affine\.load @([\w.\-]+)\[(.*)\]$")
_STORE_RE = re.compile(r"^affine\.store %(\w+), @([\w.\-]+)\[(.*)\]$")
_CONST_RE = re.compile(r"^%(\w+) = arith\.constant (.+)$")
_BINARY_RE = re.compile(r"^%(\w+) = arith\.(\w+) %(\w+), %(\w+)$")
_UNARY_RE = re.compile(r"^%(\w+) = arith\.(\w+) %(\w+)$")
_CAP_RE = re.compile(
    r"^polyufc\.set_uncore_cap \{ freq_ghz = ([\d.]+)"
    r'(?: reason="([^"]*)")? \}$'
)


class ParseError(IRError):
    """Input text outside the supported affine textual subset."""


def parse_expr(text: str) -> LinExpr:
    """Parse an affine expression: ``2*i + j - 3``, ``n - 1``, ``5``."""
    text = text.strip()
    if not text:
        raise ParseError("empty affine expression")
    normalized = text.replace("-", "+-").replace("++", "+")
    if normalized.startswith("+"):
        normalized = normalized[1:]
    expr = LinExpr.cst(0)
    for term in normalized.split("+"):
        term = term.strip()
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        if "*" in term:
            coeff_text, name = term.split("*", 1)
            coeff_text = coeff_text.strip()
            name = name.strip()
            if not re.fullmatch(r"\d+", coeff_text) or not re.fullmatch(
                r"\w+", name
            ):
                raise ParseError(f"cannot parse affine term {term!r}")
            expr = expr + LinExpr.var(name, sign * int(coeff_text))
        elif re.fullmatch(r"\d+", term):
            expr = expr + sign * int(term)
        elif re.fullmatch(r"\w+", term):
            expr = expr + LinExpr.var(term, sign)
        else:
            raise ParseError(f"cannot parse affine term {term!r}")
    return expr


def _parse_bound(text: str) -> List[LinExpr]:
    text = text.strip()
    for tag in ("max", "min"):
        if text.startswith(f"{tag}(") and text.endswith(")"):
            inner = text[len(tag) + 1 : -1]
            return [parse_expr(part) for part in inner.split(",")]
    return [parse_expr(text)]


def _split_subscripts(text: str) -> List[LinExpr]:
    text = text.strip()
    if not text:
        return []
    return [parse_expr(part) for part in text.split(",")]


class _Parser:
    def __init__(self, text: str):
        self.lines = [line.strip() for line in text.splitlines()]
        self.lines = [line for line in self.lines if line]
        self.position = 0
        self.module: Optional[Module] = None
        self.values: Dict[str, Value] = {}

    def peek(self) -> Optional[str]:
        if self.position < len(self.lines):
            return self.lines[self.position]
        return None

    def advance(self) -> str:
        line = self.lines[self.position]
        self.position += 1
        return line

    def parse(self) -> Module:
        header = self.advance()
        match = _MODULE_RE.match(header)
        if not match:
            raise ParseError(f"expected module header, got {header!r}")
        self.module = Module(match.group(1))
        while True:
            line = self.peek()
            if line is None:
                raise ParseError("unterminated module")
            if line == "}":
                self.advance()
                break
            self.parse_top_level()
        return self.module

    def parse_top_level(self) -> None:
        line = self.peek()
        memref = _MEMREF_RE.match(line)
        if memref:
            self.advance()
            name, dims_text, type_name = memref.groups()
            dtype = _TYPES.get(type_name)
            if dtype is None:
                raise ParseError(f"unknown element type {type_name!r}")
            shape = tuple(int(d) for d in dims_text.split("x"))
            self.module.add_buffer(name, shape, dtype)
            return
        param = _PARAM_RE.match(line)
        if param:
            self.advance()
            self.module.set_param(param.group(1), int(param.group(2)))
            return
        cap = _CAP_RE.match(line)
        if cap:
            self.advance()
            self.module.append(
                SetUncoreCapOp(float(cap.group(1)), cap.group(2) or "")
            )
            return
        if _FOR_RE.match(line):
            self.module.append(self.parse_loop())
            return
        raise ParseError(f"unexpected top-level line {line!r}")

    def parse_loop(self) -> AffineForOp:
        match = _FOR_RE.match(self.advance())
        tag, iv_name, lower_text, upper_text, step = match.groups()
        loop = AffineForOp(
            iv_name,
            _parse_bound(lower_text),
            _parse_bound(upper_text),
            int(step),
            parallel=(tag == "affine.parallel"),
        )
        while True:
            line = self.peek()
            if line is None:
                raise ParseError(f"unterminated loop %{iv_name}")
            if line == "}":
                self.advance()
                return loop
            loop.body.append(self.parse_body_op())

    def parse_body_op(self):
        line = self.peek()
        if _FOR_RE.match(line):
            return self.parse_loop()
        self.advance()
        load = _LOAD_RE.match(line)
        if load:
            result_name, buffer_name, subscripts = load.groups()
            op = AffineLoadOp(
                self._buffer(buffer_name), _split_subscripts(subscripts)
            )
            self.values[result_name] = op.result
            return op
        store = _STORE_RE.match(line)
        if store:
            value_name, buffer_name, subscripts = store.groups()
            return AffineStoreOp(
                self._value(value_name),
                self._buffer(buffer_name),
                _split_subscripts(subscripts),
            )
        const = _CONST_RE.match(line)
        if const:
            op = arith.ConstantOp(float(const.group(2)))
            self.values[const.group(1)] = op.result
            return op
        binary = _BINARY_RE.match(line)
        if binary and binary.group(2) in arith.BINARY_KINDS:
            result_name, kind, lhs, rhs = binary.groups()
            op = arith.BinaryOp(kind, self._value(lhs), self._value(rhs))
            self.values[result_name] = op.result
            return op
        unary = _UNARY_RE.match(line)
        if unary and unary.group(2) in arith.UNARY_KINDS:
            result_name, kind, operand = unary.groups()
            op = arith.UnaryOp(kind, self._value(operand))
            self.values[result_name] = op.result
            return op
        cap = _CAP_RE.match(line)
        if cap:
            return SetUncoreCapOp(float(cap.group(1)), cap.group(2) or "")
        raise ParseError(f"cannot parse op line {line!r}")

    def _buffer(self, name: str) -> Buffer:
        buffer = self.module.buffers.get(name)
        if buffer is None:
            raise ParseError(f"use of undeclared buffer @{name}")
        return buffer

    def _value(self, name: str) -> Value:
        value = self.values.get(name)
        if value is None:
            raise ParseError(f"use of undefined value %{name}")
        return value


def parse_module(text: str) -> Module:
    """Parse an affine-level module from its printed textual form."""
    return _Parser(text).parse()
