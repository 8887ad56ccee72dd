"""Exact sparse multivariate polynomials over the rationals.

The toolkit manipulates binomial ideals attached to labeled graphs, so the
arithmetic layer stays deliberately small: monomials are exponent tuples,
coefficients are `fractions.Fraction`, and every operation is exact.  Floating
point never appears.  Three monomial orders are provided: the degree reverse
lexicographic order used by default, plain lex, and a block elimination order
for auxiliary variables introduced by intersection and radical-membership
constructions.

The package's value types (contexts, orders, polynomials, ideals, graphs,
reports) derive from `Record`, defined here because every module imports
this one.  `Record` gives a positional constructor, equality, hashing, a
``Name(field=value)`` repr and immutability from a per-class tuple of field
names, so a plain type names its fields once.  A type that validates its
arguments writes its own ``__init__``, ending in ``super().__init__``.
`Polynomial` sets its two fields itself: Buchberger builds polynomials on its
hot path, and the generic loop takes about twice as long per call.
The package does not use `dataclasses`: the decorator writes out and
compiles several methods per class, about 0.5 ms for a frozen class against
0.01 ms for a `Record` subclass.  For the package's 18 classes that was some
20 ms of a 45 ms re-import (Python 3.11, 2 vCPUs, no bytecode cache), and
every command pays the import first.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter, itemgetter, neg

Mono = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ContextMismatchError(ValueError):
    """Raised when operands live in incompatible variable contexts."""


class PolynomialParseError(ValueError):
    """Raised on malformed polynomial text."""


# ---------------------------------------------------------------------------
# immutable value types
# ---------------------------------------------------------------------------

# Sets a field past a Record's assignment guard; only constructors call it.
set_field = object.__setattr__


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields``, in constructor order.  The
    constructor takes exactly one positional value per field and sets each
    with `set_field`; a subclass that checks its arguments overrides it and
    ends in ``super().__init__(...)``.  Equality (with instances of
    the same class only) and hashing go over the fields minus those listed in
    ``_uncompared``, hashing the tuple of their values; the repr shows every
    field.  Assigning or deleting an attribute raises AttributeError.
    Instances keep a ``__dict__``, so default pickling restores the fields
    without calling ``__init__``.
    """

    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = [name for name in cls._fields if name not in cls._uncompared]
        values = attrgetter(*compared)
        # attrgetter returns a lone field bare; hash it as a 1-tuple all the same
        cls._values = staticmethod(values if len(compared) > 1 else lambda obj: (values(obj),))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# variable contexts
# ---------------------------------------------------------------------------


class VariableContext(Record):
    """Fixes the variable block a polynomial lives in.

    The ``base_count`` base variables display as x1, x2, ...; auxiliary
    variables appended by constructions (one per role tag) display as t1,
    t2, ... and always occupy the trailing exponent positions.  Variables are
    never renamed: extending or restricting a context leaves the base block
    untouched.
    """

    _fields = ("base_count", "aux_roles")

    def __init__(self, base_count: int, aux_roles: tuple[str, ...] = ()):
        if base_count < 2:
            raise ValueError("a context needs at least two base variables")
        for role in aux_roles:
            if not role:
                raise ValueError("auxiliary roles must be nonempty strings")
        super().__init__(base_count, aux_roles)

    @property
    def total_count(self) -> int:
        return self.base_count + len(self.aux_roles)

    def variable_name(self, index: int) -> str:
        if not 0 <= index < self.total_count:
            raise IndexError(f"variable index {index} out of range")
        if index < self.base_count:
            return f"x{index + 1}"
        return f"t{index - self.base_count + 1}"

    def extended(self, role: str) -> "VariableContext":
        """A new context with one more auxiliary variable tagged ``role``."""
        return VariableContext(self.base_count, self.aux_roles + (role,))

    def base(self) -> "VariableContext":
        return VariableContext(self.base_count) if self.aux_roles else self


# ---------------------------------------------------------------------------
# monomials as exponent tuples
# ---------------------------------------------------------------------------


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))

def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(x if x > y else y for x, y in zip(a, b))

def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a divides b componentwise."""
    return all(x <= y for x, y in zip(a, b))

def mono_div(a: Mono, b: Mono) -> Mono:
    """The quotient a / b; b must divide a."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError("monomial division with remainder")
    return q

def mono_deg(a: Mono) -> int:
    return sum(a)

def unit_mono(width: int) -> Mono:
    return (0,) * width


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class MonomialOrder(Record):
    """A global monomial order on exponent tuples.

    kind "revlex": total degree first; on ties the monomial whose exponent
    difference has a negative last nonzero entry is the larger.  This is the
    degree reverse lexicographic order induced by x1 > x2 > ... > xN.

    kind "lex": plain lexicographic comparison of exponent tuples.

    kind "elim": block elimination order pushing the last ``elim_count``
    (auxiliary) variables in front: compare total degree of the trailing
    block, then lex within it, then revlex on the leading block.  Any
    monomial involving an auxiliary variable dominates every monomial free
    of them, which is what elimination needs.
    """

    _fields = ("kind", "elim_count")

    def __init__(self, kind: str, elim_count: int = 0):
        if kind not in ("revlex", "lex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "elim" and elim_count < 1:
            raise ValueError("elimination orders need at least one variable")
        if kind != "elim" and elim_count:
            raise ValueError("elim_count applies only to elimination orders")
        super().__init__(kind, elim_count)

    def sort_key(self, m: Mono) -> tuple:
        """A plain tuple key for m, ascending in the order; use with sorted()/max()."""
        if self.kind == "revlex":
            return _revlex_key(m)
        if self.kind == "lex":
            return m
        tail = m[-self.elim_count:]
        return (sum(tail), tail, _revlex_key(m[:-self.elim_count]))

    def compare(self, a: Mono, b: Mono) -> int:
        """-1, 0 or 1 as a is smaller than, equal to or greater than b."""
        if len(a) != len(b) or (self.kind == "elim" and len(a) <= self.elim_count):
            raise ContextMismatchError("incompatible contexts")
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def __str__(self) -> str:
        if self.kind == "elim":
            return f"elim({self.elim_count})"
        return self.kind


def _revlex_key(m: Mono) -> tuple:
    # on equal degree the larger monomial has the smaller last differing entry
    return (sum(m), tuple(map(neg, reversed(m))))


REVLEX = MonomialOrder("revlex")
LEX = MonomialOrder("lex")

def block_elim(count: int = 1) -> MonomialOrder:
    """Elimination order for the last ``count`` auxiliary variables."""
    return MonomialOrder("elim", count)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial(Record):
    """An exact polynomial: a sorted tuple of (monomial, coefficient) pairs.

    Terms are kept in descending lex order of the exponent tuple with no zero
    coefficients, so structural equality and hashing are canonical.  Use the
    classmethod builders or the parser rather than the raw constructor.
    """

    _fields = ("context", "terms")

    # Not the generic Record constructor: Buchberger builds polynomials on its
    # hot path, where this takes 0.39 us a call against 0.74 us through the
    # generic loop (timeit, Python 3.11.7, 2 vCPUs).
    def __init__(self, context: VariableContext, terms: tuple[tuple[Mono, Fraction], ...]):
        set_field(self, "context", context)
        set_field(self, "terms", terms)

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_dict(cls, context: VariableContext, coeffs) -> "Polynomial":
        width = context.total_count
        clean = {}
        for mono, c in coeffs.items():
            if len(mono) != width:
                raise ContextMismatchError("incompatible contexts")
            c = Fraction(c)
            if c:
                clean[tuple(mono)] = c
        terms = tuple(sorted(clean.items(), key=itemgetter(0), reverse=True))
        return cls(context, terms)

    @classmethod
    def zero(cls, context: VariableContext) -> "Polynomial":
        return cls(context, ())

    @classmethod
    def constant(cls, context: VariableContext, value) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return cls.zero(context)
        return cls(context, ((unit_mono(context.total_count), value),))

    @classmethod
    def one(cls, context: VariableContext) -> "Polynomial":
        return cls.constant(context, 1)

    @classmethod
    def variable(cls, context: VariableContext, index: int) -> "Polynomial":
        """The base variable x<index>, 1-based."""
        if not 1 <= index <= context.base_count:
            raise ValueError(f"no base variable x{index} in this context")
        return cls._single(context, index - 1)

    @classmethod
    def auxiliary(cls, context: VariableContext, index: int = 1) -> "Polynomial":
        """The auxiliary variable t<index>, 1-based."""
        if not 1 <= index <= len(context.aux_roles):
            raise ValueError(f"no auxiliary variable t{index} in this context")
        return cls._single(context, context.base_count + index - 1)

    @classmethod
    def _single(cls, context, position):
        mono = tuple(1 if i == position else 0 for i in range(context.total_count))
        return cls(context, ((mono, _ONE),))

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Highest term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m, _ in self.terms)

    def leading_term(self, order: MonomialOrder = REVLEX) -> tuple[Mono, Fraction]:
        """The (monomial, coefficient) pair of the largest term under `order`."""
        # Remembered per order in the instance dict, outside the fields, so
        # equality and hashing ignore it; __getstate__ drops it.
        leads = self.__dict__.setdefault("_leads", {})
        term = leads.get(order)
        if term is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            key = order.sort_key
            term = leads[order] = max(self.terms, key=lambda t: key(t[0]))
        return term

    def leading_monomial(self, order: MonomialOrder = REVLEX) -> Mono:
        return self.leading_term(order)[0]

    def leading_coefficient(self, order: MonomialOrder = REVLEX) -> Fraction:
        return self.leading_term(order)[1]

    def monic(self, order: MonomialOrder = REVLEX) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self * (1 / lc)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1 and mono_deg(self.terms[0][0]) == 0:
            return self.terms[0][1]
        return None

    # -- arithmetic ---------------------------------------------------------

    def _require_same_context(self, other: "Polynomial"):
        if self.context != other.context:
            raise ContextMismatchError("incompatible contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_context(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            v = acc.get(m, _ZERO) + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return Polynomial.from_dict(self.context, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.context, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return Polynomial.zero(self.context)
            return Polynomial(self.context, tuple((m, c * other) for m, c in self.terms))
        self._require_same_context(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                v = acc.get(m, _ZERO) + c1 * c2
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return Polynomial.from_dict(self.context, acc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.one(self.context)
        for _ in range(exponent):
            result = result * self
        return result

    def times_term(self, coefficient, mono: Mono) -> "Polynomial":
        """self * (coefficient * mono), the workhorse of division loops."""
        coefficient = Fraction(coefficient)
        if not coefficient:
            return Polynomial.zero(self.context)
        return Polynomial(
            self.context,
            tuple((mono_mul(m, mono), c * coefficient) for m, c in self.terms),
        )

    def __str__(self) -> str:
        return format_polynomial(self)

    def __getstate__(self):
        return {"context": self.context, "terms": self.terms}


# ---------------------------------------------------------------------------
# context lifting
# ---------------------------------------------------------------------------


def extend_polynomial(p: Polynomial, target: VariableContext) -> Polynomial:
    """Reinterprets p in a context that appends auxiliary variables."""
    src = p.context
    if target.base_count != src.base_count or target.aux_roles[: len(src.aux_roles)] != src.aux_roles:
        raise ContextMismatchError("incompatible contexts")
    pad = (0,) * (target.total_count - src.total_count)
    return Polynomial(target, tuple((m + pad, c) for m, c in p.terms))


def restrict_polynomial(p: Polynomial, target: VariableContext) -> Polynomial:
    """Drops trailing auxiliary variables that p does not use."""
    src = p.context
    if target.base_count != src.base_count or src.aux_roles[: len(target.aux_roles)] != target.aux_roles:
        raise ContextMismatchError("incompatible contexts")
    keep = target.total_count
    for m, _ in p.terms:
        if any(m[keep:]):
            raise ValueError("polynomial uses auxiliary variables being dropped")
    return Polynomial(target, tuple((m[:keep], c) for m, c in p.terms))


# ---------------------------------------------------------------------------
# text form: parser and printer
# ---------------------------------------------------------------------------
#
# Grammar: a polynomial is terms joined by + or -; a term is an optional
# rational coefficient, an optional '*', then '*'-separated variable powers
# like x3 or x3^2.  Example: "x1*x3 - x2^2".  Whitespace is free.

_TOKEN_RE = re.compile(r"(?P<sign>[+-])|(?P<number>\d+)|(?P<var>[xt]\d+)|(?P<op>[*^/])|(?P<junk>\S)")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "junk":
            raise PolynomialParseError(
                f"unexpected character {match.group()!r} at position {match.start()}"
            )
        tokens.append((kind, match.group(), match.start()))
    return tokens


def parse_polynomial(text: str, context: VariableContext) -> Polynomial:
    """Parses the text form of a polynomial in the given context."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial text")
    acc: dict = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = _ONE
        if tokens[i][0] == "sign":
            sign = _ONE if tokens[i][1] == "+" else -_ONE
            i += 1
        elif not first:
            raise PolynomialParseError(
                f"expected '+' or '-' at position {tokens[i][2]}"
            )
        first = False
        coeff, mono, i = _parse_term(tokens, i, context)
        mono = tuple(mono)
        v = acc.get(mono, _ZERO) + sign * coeff
        if v:
            acc[mono] = v
        else:
            acc.pop(mono, None)
    return Polynomial.from_dict(context, acc)


def _parse_term(tokens, i, context):
    coeff = _ONE
    exps = [0] * context.total_count
    saw_factor = False

    def peek(j):
        return tokens[j][0] if j < len(tokens) else None

    if peek(i) == "number":
        num = int(tokens[i][1])
        i += 1
        if peek(i) == "op" and tokens[i][1] == "/":
            i += 1
            if peek(i) != "number":
                raise PolynomialParseError("expected denominator after '/'")
            den = int(tokens[i][1])
            if den == 0:
                raise PolynomialParseError("zero denominator")
            i += 1
            coeff = Fraction(num, den)
        else:
            coeff = Fraction(num)
        saw_factor = True
        if peek(i) == "op" and tokens[i][1] == "*":
            i += 1
            if peek(i) != "var":
                raise PolynomialParseError("expected a variable after '*'")

    while peek(i) == "var":
        var_token = tokens[i]
        exp, i = _parse_exponent_suffix(tokens, i + 1)
        exps[_variable_index(var_token, context)] += exp
        saw_factor = True
        if peek(i) == "op" and tokens[i][1] == "*":
            i += 1
            if peek(i) != "var":
                raise PolynomialParseError("expected a variable after '*'")

    if not saw_factor:
        pos = tokens[i][2] if i < len(tokens) else len(tokens)
        raise PolynomialParseError(f"expected a term at token position {pos}")
    return coeff, exps, i


def _variable_index(token, context: VariableContext) -> int:
    text = token[1]
    number = int(text[1:])
    if text[0] == "x":
        if not 1 <= number <= context.base_count:
            raise PolynomialParseError(f"unknown variable {text!r} for this context")
        return number - 1
    if not 1 <= number <= len(context.aux_roles):
        raise PolynomialParseError(f"unknown variable {text!r} for this context")
    return context.base_count + number - 1


def _parse_exponent_suffix(tokens, i):
    """Reads an optional ^<positive int>; returns (exponent, next index)."""
    if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
        if i + 1 >= len(tokens) or tokens[i + 1][0] != "number":
            raise PolynomialParseError("expected an exponent after '^'")
        exp = int(tokens[i + 1][1])
        if exp < 1:
            raise PolynomialParseError("exponents must be positive")
        return exp, i + 2
    return 1, i


def format_monomial(context: VariableContext, mono: Mono) -> str:
    parts = []
    for index, exp in enumerate(mono):
        if exp == 0:
            continue
        name = context.variable_name(index)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Renders terms in descending exponent order, e.g. 'x1*x3 - x2^2'."""
    if not p.terms:
        return "0"
    pieces = []
    for k, (mono, coeff) in enumerate(p.terms):
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        monomial = format_monomial(p.context, mono)
        if not monomial:
            body = str(magnitude)
        elif magnitude == 1:
            body = monomial
        else:
            body = f"{magnitude}*{monomial}"
        if k == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)
