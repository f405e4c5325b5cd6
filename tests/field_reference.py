"""Reference kernels for LCElement addition, multiplication, inversion and
division, and the reference literal parser.

These are the straightforward forms the library's kernels must agree with:
addition merges the terms in a map and truncates afterwards;
multiplication forms every pair of terms and truncates afterwards;
inversion evaluates the geometric series in h with at most
``geometric_series_depth`` window-truncated products; division multiplies
by that inverse.  ``reference_quotient_terms`` is the general long division
by 1 + h, with a heap of pending exponents and a map of the coefficients
found.  The differential tests in ``test_field_kernel.py`` and
``test_transition.py`` compare the library against them: addition,
multiplication and the long division term for term, inversion and division
with ``assert_refines``.  The truncation ``_finalize`` is a copy of its own,
one filter per cut, so a cut the library misplaces shows as a difference.
``reference_parse_element`` is the literal parser as a tokenizer and a
recursive descent; ``test_field.py`` holds the regular-expression parser to
it.
"""

import heapq
import math
from fractions import Fraction

from nacap.errors import FieldParseError, IndeterminateComparisonError
from nacap.exact import Q, canonical
from nacap.field import _ONE, INF, Exponent, LCElement, active_precision


def _finalize(terms, guarantee, cfg) -> LCElement:
    """Guarantee, window and term-count truncation of a sorted list of
    (exponent, coefficient) pairs with nonzero coefficients."""
    if terms and guarantee != INF:
        terms = [t for t in terms if t[0] < guarantee]
    if terms:
        cut = terms[0][0] + cfg.window
        if terms[-1][0] >= cut:
            terms = [t for t in terms if t[0] < cut]
            guarantee = min(guarantee, cut)
        if len(terms) > cfg.max_terms:
            guarantee = min(guarantee, terms[cfg.max_terms][0])
            terms = terms[: cfg.max_terms]
    return LCElement(tuple(terms), guarantee)


def reference_add(x: LCElement, y: LCElement) -> LCElement:
    acc = dict(x.terms)
    for exponent, coefficient in y.terms:
        value = acc.get(exponent, Q(0)) + coefficient
        if value == 0:
            acc.pop(exponent, None)
        else:
            acc[exponent] = value
    return _finalize(sorted(acc.items()), min(x.guarantee, y.guarantee), active_precision())


def reference_mul(x: LCElement, y: LCElement) -> LCElement:
    cfg = active_precision()
    guarantee = min(
        x.guarantee + y.valuation,
        y.guarantee + x.valuation,
        x.guarantee + y.guarantee,
    )
    acc: dict = {}
    for ex, cx in x.terms:
        for ey, cy in y.terms:
            exponent = ex + ey
            value = acc.get(exponent, Q(0)) + cx * cy
            if value == 0:
                acc.pop(exponent, None)
            else:
                acc[exponent] = value
    return _finalize(sorted(acc.items()), guarantee, cfg)


def reference_quotient_terms(s: LCElement, h: LCElement, cfg):
    """(terms, guarantee) of s/(1+h), as ``field._quotient_terms`` returns
    them, for s of valuation 0 and h of positive valuation."""
    bound = min(s.guarantee, h.guarantee)
    if h.terms:
        lam = h.terms[0][0]
        steps = min(cfg.geometric_series_depth - 1, math.ceil(cfg.window / lam) + 1)
        bound = min(bound, (steps + 1) * lam)
    coefficients: dict = {}
    terms = []
    pending = [e for e, _ in s.terms if e < bound]
    queued = set(pending)
    index = 0
    while pending:
        e = heapq.heappop(pending)
        c = Q(0)
        if index < len(s.terms) and s.terms[index][0] == e:
            c = s.terms[index][1]
            index += 1
        for eta, h_eta in h.terms:
            if eta > e:
                break
            previous = coefficients.get(e - eta)
            if previous is not None:
                c -= h_eta * previous
        if c == 0:
            continue
        if e >= cfg.window or len(terms) == cfg.max_terms:
            return terms, e
        coefficients[e] = c
        terms.append((e, c))
        for eta, _ in h.terms:
            successor = e + eta
            if successor >= bound:
                break
            if successor not in queued:
                queued.add(successor)
                heapq.heappush(pending, successor)
    return terms, bound


def reference_inv(x: LCElement) -> LCElement:
    """x = a0*e^(q0)*(1+h); 1/(1+h) by a truncated geometric series whose
    products go through ``reference_mul``."""
    if not x.terms:
        if x.guarantee == INF:
            raise ZeroDivisionError("inverse of zero")
        raise IndeterminateComparisonError("inverse of a zero-like element")
    cfg = active_precision()
    q0, a0 = x.terms[0]
    gh = INF if x.guarantee == INF else x.guarantee - q0
    h = _finalize([(e - q0, c / a0) for e, c in x.terms[1:]], gh, cfg)
    series = _ONE + (-h)
    if h.terms:
        lam = h.terms[0][0]
        steps = min(
            cfg.geometric_series_depth - 1,
            int(math.ceil(cfg.window / lam)) + 1,
        )
        neg_h = -h
        for _ in range(steps - 1):
            series = _ONE + reference_mul(neg_h, series)
        remainder = (steps + 1) * lam
        if remainder < series.guarantee:
            series = _finalize(list(series.terms), remainder, cfg)
    return _finalize(
        [(e - q0, c / a0) for e, c in series.terms],
        series.guarantee if series.guarantee == INF else series.guarantee - q0,
        cfg,
    )


def reference_div(x: LCElement, y: LCElement) -> LCElement:
    return reference_mul(x, reference_inv(y))


def assert_refines(new: LCElement, ref: LCElement):
    """``new`` certifies at least what ``ref`` does, and the same terms."""
    assert all(e < new.guarantee for e, _ in new.terms), new
    assert new.guarantee >= ref.guarantee, (new, ref)
    assert tuple(t for t in new.terms if t[0] < ref.guarantee) == ref.terms, (new, ref)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, char: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise FieldParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def digits(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise FieldParseError("expected digits", start)
        return int(self.text[start : self.pos])

    def rational(self) -> Fraction:
        self._skip_ws()
        sign = 1
        if self.peek() == "-":
            self.expect("-")
            sign = -1
        numerator = self.digits()
        if self.peek() == "/":
            self.expect("/")
            denominator = self.digits()
            if denominator == 0:
                raise FieldParseError("zero denominator", self.pos - 1)
            return Q(sign * numerator, denominator)
        return Q(sign * numerator)


def reference_parse_element(text: str) -> LCElement:
    """Parse a field-element literal; exact result (infinite guarantee)."""
    tok = _Tokenizer(text)
    seen: dict = {}

    def read_term(sign: int):
        char = tok.peek()
        if char is None:
            raise FieldParseError("expected a term", tok.pos)
        if char == "e":
            coefficient = Q(sign)
            exponent = _read_eps(tok)
        else:
            coefficient = sign * tok.rational()
            if tok.peek() == "*":
                tok.expect("*")
                exponent = _read_eps(tok)
            else:
                exponent = 0
        position = tok.pos
        if exponent in seen:
            raise FieldParseError(f"duplicate exponent {exponent}", position)
        seen[exponent] = coefficient

    read_term(1)
    while True:
        char = tok.peek()
        if char is None:
            break
        if char == "+":
            tok.expect("+")
            read_term(1)
        elif char == "-":
            tok.expect("-")
            read_term(-1)
        else:
            raise FieldParseError(f"unexpected character {char!r}", tok.pos)
    terms = sorted((e, c) for e, c in seen.items() if c != 0)
    return LCElement(tuple(terms), INF)


def _read_eps(tok: _Tokenizer) -> Exponent:
    tok.expect("e")
    tok.expect("^")
    tok.expect("(")
    exponent = canonical(tok.rational())
    tok.expect(")")
    return exponent
