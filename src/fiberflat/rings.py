"""Base rings, primes, spectra, and residue fields.

Five ring kinds are supported: the integers ``Z``, quotients ``Z/n``, the
localization ``Z_(p)`` of the integers at a prime p, prime fields ``F_p``,
and the rationals ``Q``.  Ring elements are plain Python numbers: ``int``
for Z, Z/n and F_p, ``fractions.Fraction`` for Q and Z_(p).  Every public
entry point canonicalizes its operands, so downstream code may assume

* Z: any int,
* Z/n and F_p: representative in [0, n),
* Q: reduced Fraction,
* Z_(p): reduced Fraction whose denominator is coprime to p.

All arithmetic is exact; nothing in this module (or the package) touches
floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, prod

from .errors import ContradictionError, InputError

Scalar = int | Fraction


# Miller-Rabin with the 13 prime bases below decides primality exactly for
# every n below this bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981

# factor_trial divides by every candidate below _TRIAL_BOUND, then spends
# at most FACTOR_STEPS steps of Pollard-Brent rho, one step being one
# y -> y^2 + c mod m.  That splits products of two 40-bit primes; on a
# 2-core VM (Python 3.11) it runs out in about 2.5 s on a 128-bit modulus.
_TRIAL_BOUND = 1024
FACTOR_STEPS = 2 ** 22
_RHO_BATCH = 128  # steps between two gcds


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check for n < PRIMALITY_BOUND.

    Larger n raise InputError: no answer is guessed past the proven bound.

    >>> [k for k in range(2, 20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n >= PRIMALITY_BOUND:
        raise InputError(f"cannot decide primality of integers >= {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int, bases: tuple[int, ...] = _MR_BASES) -> bool:
    """Whether n, odd and coprime to _MR_BASES, passes the strong test to
    every base: False proves n composite at any size, and below
    PRIMALITY_BOUND True to all of _MR_BASES proves it prime."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(m: int, steps: int) -> tuple[int, int]:
    """A proper divisor of the composite m, which has no factor below
    _TRIAL_BOUND, by Pollard-Brent rho (Pollard 1975, Brent 1980), and the
    steps left of `steps`; (1, 0) once they run out."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps -= r
            if steps < 0:
                return 1, 0
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys, batch = y, min(_RHO_BATCH, r - k)
                steps -= batch
                if steps < 0:
                    return 1, 0
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += batch
            r *= 2
        if g == m:  # the batch passed a collision: replay it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g, steps


def factor_trial(n: int) -> dict[int, int]:
    """Factor a positive integer as {prime: exponent}: trial division below
    _TRIAL_BOUND, then Miller-Rabin and Pollard-Brent rho on what is left.

    InputError when the FACTOR_STEPS rho steps run out, or when a factor
    at or above PRIMALITY_BOUND passes the strong test to base 2, where no
    number of bases proves it prime.

    >>> factor_trial(360), factor_trial(18446744400127067027)
    ({2: 3, 3: 2, 5: 1}, {4294967311: 1, 4294967357: 1})
    """
    if n <= 0:
        raise InputError(f"cannot factor non-positive integer {n}")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    while f < _TRIAL_BOUND and f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 2 if f % 6 == 5 else 4
    pending = [m] if m > 1 else []
    steps = FACTOR_STEPS
    while pending:
        m = pending.pop()
        # m has no factor below f, so below f * f it is prime; at or above
        # PRIMALITY_BOUND no number of bases proves it prime, so one decides
        big = m >= PRIMALITY_BOUND
        if m < f * f or _strong_probable_prime(m, _MR_BASES[:1] if big else _MR_BASES):
            if big:
                raise InputError(f"cannot factor {quoted(n)}: cannot decide primality of "
                                 f"its factor {quoted(m)}, which is >= {PRIMALITY_BOUND}")
            out[m] = out.get(m, 0) + 1
            continue
        d, steps = _rho_divisor(m, steps)
        if d == 1:
            raise InputError(f"cannot factor {quoted(n)} within {FACTOR_STEPS} "
                             f"steps of Pollard-Brent rho")
        pending += [d, m // d]
    product = prod(p ** e for p, e in out.items())
    if product != n:
        raise ContradictionError(f"the factors of {quoted(n)} multiply to {quoted(product)}")
    return dict(sorted(out.items()))


@dataclass(frozen=True, order=False)
class Prime:
    """A point of the spectrum: the generic point (0) or a prime (p).

    ``p is None`` encodes the generic point.  Constructing ``Prime.at(p)``
    verifies primality (see is_prime).
    """

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")

    @classmethod
    def at(cls, p: int) -> "Prime":
        return cls(p)

    @property
    def is_generic(self) -> bool:
        return self.p is None

    def sort_key(self) -> tuple[int, int]:
        # Generic first, then primes ascending: the pinned report order.
        return (0, 0) if self.p is None else (1, self.p)

    def literal(self) -> str:
        return "0" if self.p is None else str(self.p)

    def __str__(self) -> str:
        return f"({self.literal()})"


GENERIC = Prime()


QUOTE_LIMIT = 64


def quoted(obj: object) -> str:
    """repr(obj) for an error message.  Past QUOTE_LIMIT characters only
    its first QUOTE_LIMIT and a length (a string's own, else the repr's)
    are quoted, so an input of megabytes does not reach stderr whole."""
    text = repr(obj)
    if len(text) <= QUOTE_LIMIT:
        return text
    size = len(obj) if isinstance(obj, str) else len(text)
    return f"{text[:QUOTE_LIMIT]}... ({size} characters)"


def parse_prime(text: str) -> Prime:
    """Parse a prime literal: "0" for the generic point, else a prime."""
    try:
        value = int(text)
    except ValueError as exc:
        raise InputError(f"bad prime literal {quoted(text)}") from exc
    return GENERIC if value == 0 else Prime.at(value)


@dataclass(frozen=True)
class BaseRing:
    """A supported base ring, tagged by kind and an optional parameter.

    kind is one of "Z", "Zmod", "Zloc", "Fp", "Q"; param is n for Z/n and
    p for Z_(p) and F_p.  Use the module-level constructors (``ZZ``,
    ``integers_mod``, ...) rather than instantiating directly.
    """

    kind: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Zmod", "Zloc", "Fp", "Q"):
            raise InputError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod":
            if self.param is None or self.param < 2:
                # n = 1 would be the zero ring; n = 0 would be Z in disguise.
                raise InputError("Z/n requires n >= 2 (the zero ring is rejected)")
        elif self.kind in ("Zloc", "Fp"):
            if self.param is None or not is_prime(self.param):
                raise InputError(f"{self.kind} requires a prime parameter, got {self.param}")
        elif self.param is not None:
            raise InputError(f"ring kind {self.kind} takes no parameter")

    # -- presentation ----------------------------------------------------

    def literal(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Zmod":
            return f"Z/{self.param}"
        if self.kind == "Zloc":
            return f"Zloc/{self.param}"
        if self.kind == "Fp":
            return f"F{self.param}"
        return "Q"

    def __str__(self) -> str:
        return self.literal()

    @property
    def is_field(self) -> bool:
        return self.kind in ("Fp", "Q")

    @property
    def uses_fractions(self) -> bool:
        return self.kind in ("Zloc", "Q")

    # -- element arithmetic ----------------------------------------------

    def canon(self, x: Scalar) -> Scalar:
        """Canonical representative of x, validating membership.

        >>> integers_mod(6).canon(-1)
        5
        >>> localized_at(5).canon(Fraction(3, 2))
        Fraction(3, 2)
        """
        if type(x) is int:  # the common case; bool and Fraction take the checks below
            if self.kind == "Z":
                return x
            if self.kind in ("Zmod", "Fp"):
                return x % self.param  # type: ignore[operator]
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise InputError(f"{x} is not an integer")
                return int(x)
            return int(x)
        if self.kind in ("Zmod", "Fp"):
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise InputError(f"{x} is not an integer")
                x = int(x)
            return int(x) % self.param  # type: ignore[operator]
        x = Fraction(x)
        if self.kind == "Zloc" and x.denominator % self.param == 0:  # type: ignore[operator]
            raise InputError(f"{x} is not p-integral for p = {self.param}")
        return x

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.uses_fractions else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.uses_fractions else 1

    def is_unit(self, a: Scalar) -> bool:
        """Units: +-1 in Z, residues coprime to n in Z/n, valuation-0 in Z_(p).

        >>> ZZ.is_unit(-1), ZZ.is_unit(2)
        (True, False)
        >>> integers_mod(6).is_unit(5), integers_mod(6).is_unit(3)
        (True, False)
        """
        if self.kind == "Z":
            return a == 1 or a == -1
        if self.kind == "Zmod":
            return gcd(int(a), self.param) == 1  # type: ignore[arg-type]
        if self.kind == "Zloc":
            return a != 0 and Fraction(a).numerator % self.param != 0  # type: ignore[operator]
        return a != 0

    def annihilator(self, a: Scalar) -> Scalar:
        """A generator of ann(a) = {x : a*x = 0}: n / gcd(a, n) over Z/n;
        over the other rings, which are domains, 1 for a = 0 and 0 otherwise.

        >>> integers_mod(12).annihilator(8), integers_mod(12).annihilator(0), ZZ.annihilator(8)
        (3, 1, 0)
        """
        if self.kind == "Zmod":
            return self.canon(self.param // gcd(int(a), self.param))  # type: ignore[operator]
        return self.one if a == 0 else self.zero

    def try_divide(self, a: Scalar, b: Scalar) -> Scalar | None:
        """Some x with b*x = a, or None if a is not divisible by b.

        Over Z/n the smallest non-negative solution is returned, making the
        choice deterministic even when b is a zero divisor.
        """
        a, b = self.canon(a), self.canon(b)
        if self.kind == "Zmod":
            n = self.param
            g = gcd(int(b), n)  # type: ignore[arg-type]
            if a % g != 0:
                return None
            n_red = n // g
            if n_red == 1:
                return 0
            return ((a // g) * pow((b // g) % n_red, -1, n_red)) % n_red
        if b == 0:
            return None
        q = Fraction(a) / Fraction(b)
        if self.kind == "Z":
            return int(q) if q.denominator == 1 else None
        if self.kind == "Zloc":
            return q if q.denominator % self.param != 0 else None  # type: ignore[operator]
        return self.canon(q)

    def valuation(self, x: Scalar) -> int | None:
        """v_p(x) for x in Z_(p); None for x = 0.

        >>> localized_at(2).valuation(Fraction(12, 5))
        2
        """
        if self.kind != "Zloc":
            raise InputError(f"valuations are taken in Z_(p), not in {self}")
        num, v = self.canon(x).numerator, 0  # a canonical denominator is prime to p
        if num == 0:
            return None
        while num % self.param == 0:  # type: ignore[operator]
            num //= self.param  # type: ignore[operator]
            v += 1
        return v

    def factor(self, x: Scalar) -> dict[int, int]:
        """The primes of R that divide x, as {p: exponent}: |x| factored
        over Z, {p: v_p(x)} over Z_(p), gcd(x, n) factored over Z/n (n
        itself for x = 0), and nothing over a field.  The one caller of
        factor_trial; x = 0 is rejected over Z and Z_(p).

        >>> ZZ.factor(-12), integers_mod(12).factor(0), localized_at(3).factor(Fraction(18, 5))
        ({2: 2, 3: 1}, {2: 2, 3: 1}, {3: 2})
        """
        if self.kind == "Zloc":
            v = self.valuation(x)
            if v is None:
                raise InputError(f"cannot factor 0 in {self}")
            return {self.param: v} if v else {}  # type: ignore[dict-item]
        if self.is_field:
            return {}
        x = self.canon(x)
        n = abs(x) if self.kind == "Z" else gcd(x, self.param)  # type: ignore[arg-type]
        return factor_trial(n) if n != 1 else {}  # type: ignore[arg-type]

    # -- spectrum and residue fields ---------------------------------------

    def spectrum(self) -> tuple[Prime, ...]:
        """The points of the prime spectrum, which is finite except over Z.

        Spec Z cannot be listed: callers over Z pair the generic point with
        a finite bad-prime computation instead.

        >>> integers_mod(12).spectrum()
        (Prime(p=2), Prime(p=3))
        """
        if self.kind == "Z":
            raise InputError(f"Spec {self} is infinite and cannot be enumerated")
        if self.kind == "Zmod":
            return tuple(Prime.at(p) for p in self.factor(0))
        if self.kind == "Zloc":
            return (GENERIC, Prime.at(self.param))
        return (GENERIC,)

    def admits(self, q: Prime) -> bool:
        """Whether q is a point of Spec R, without factoring n over Z/n."""
        if self.kind == "Z":
            return True
        if self.kind == "Zmod":
            return not q.is_generic and self.param % q.p == 0  # type: ignore[operator]
        return q.is_generic or (self.kind == "Zloc" and q.p == self.param)

    def residue_field(self, q: Prime) -> "BaseRing":
        """kappa(q): F_p at a prime p, Q or the field itself at the generic
        point.  The one place a point outside Spec R is rejected.

        >>> ZZ.residue_field(Prime.at(5)).literal()
        'F5'
        >>> localized_at(5).residue_field(GENERIC).literal()
        'Q'
        """
        if not self.admits(q):
            raise InputError(f"{q} is not a point of Spec {self}")
        if q.is_generic:
            return self if self.is_field else QQ
        return prime_field(q.p)  # type: ignore[arg-type]


# -- constructors and literals ---------------------------------------------

ZZ = BaseRing("Z")
QQ = BaseRing("Q")


def integers_mod(n: int) -> BaseRing:
    return BaseRing("Zmod", n)


def localized_at(p: int) -> BaseRing:
    return BaseRing("Zloc", p)


@cache  # kappa(q) per fiber reduction; a rejected p is not cached and raises again
def prime_field(p: int) -> BaseRing:
    return BaseRing("Fp", p)


def parse_ring(text: str) -> BaseRing:
    """Parse a ring literal: Z | Z/<n> | Zloc/<p> | F<p> | Q.

    >>> parse_ring("Z/12").literal()
    'Z/12'
    >>> parse_ring("F7") == prime_field(7)
    True
    """
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    for prefix, make in (("Z/", integers_mod), ("Zloc/", localized_at), ("F", prime_field)):
        if text.startswith(prefix):
            try:
                param = int(text[len(prefix):])
            except ValueError as exc:
                raise InputError(f"bad ring literal {quoted(text)}") from exc
            return make(param)
    raise InputError(f"bad ring literal {quoted(text)}")


_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(ring: BaseRing, obj: object) -> Scalar:
    """Parse a JSON-level entry: an int, or a string "a" or "a/b" with a an
    optionally signed decimal integer and b a positive one.  Each part is
    read with int(), so the interpreter's digit limit applies to it.

    >>> parse_scalar(QQ, "-4/6"), parse_scalar(ZZ, "+7")
    (Fraction(-2, 3), 7)
    """
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise InputError(f"bad matrix entry {quoted(obj)}")
    if isinstance(obj, str):
        match = _SCALAR.fullmatch(obj)
        if match is None:
            raise InputError(f"bad matrix entry {quoted(obj)}")
        num, den = match.groups()
        try:  # int() refuses a part past the digit limit
            obj = Fraction(int(num), int(den)) if den else int(num)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad matrix entry {quoted(obj)}") from exc
    return ring.canon(obj)


def render_scalar(x: Scalar) -> int | str:
    """Inverse of parse_scalar: ints stay ints, proper fractions become "a/b"."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return int(x)
