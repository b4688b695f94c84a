"""Arithmetic in F_q (q prime) and the extension field F_{q^m}.

An element sum_i c_i x^i of F_{q^m} = F_q[x]/(f) is stored as the plain
integer sum_i c_i q^i. For q = 2 this is bit packing: addition is XOR and
multiplication is a carry-less product followed by reduction modulo f.
A FieldCtx owns the modulus and every precomputed table. Elements are bare
ints; the context travels with the containers (matrices, polynomials,
codes), which check that two contexts never mix in one operation.

When no modulus is supplied the context uses the lexicographically least
monic irreducible polynomial of degree m: the candidate whose coefficient
vector, read with the highest power most significant, encodes the smallest
integer. Irreducibility is verified at construction: gcd(x^{q^d} - x, f)
must be constant for every proper divisor d of m and x^{q^m} = x mod f.
This keeps contexts reproducible across machines, including user-supplied
moduli which get the same verification.

Scalar arithmetic here serves field set-up, one `inv` per echelon pivot,
the hook rows of twisted Gabidulin generators and the tests' references.
Matrix work (products, eliminations, and the Frobenius in the q-sums and
the decoder) runs on the coefficient digit planes of `linalg`. So F_{2^m}
keeps one scalar multiply (a nibble table and reduction tables) and one
inverse (extended Euclid), and the row helpers `mul_row`, `mac_row` and
`frob_row` are plain loops over them, for the few callers off the
keygen, decrypt and attack paths (`MatFqm.frob` in `codes.closure`,
`LinPoly.scale`).
"""

from __future__ import annotations

import functools


# ---------------------------------------------------------------------------
# polynomials over F_2 as ints (bit i = coefficient of x^i), construction-time

def _b_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _b_mulmod(a: int, b: int, f: int) -> int:
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    return _b_mod(acc, f)


def _b_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _b_mod(a, b)
    return a


# ---------------------------------------------------------------------------
# polynomials over F_q as coefficient lists (low degree first), q odd prime

def _l_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _l_mod(a: list[int], f: list[int], q: int) -> list[int]:
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - c * f[i]) % q
        a.pop()
    return _l_trim(a)


def _l_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _l_trim(out)


def _l_mulmod(a: list[int], b: list[int], f: list[int], q: int) -> list[int]:
    return _l_mod(_l_mul(a, b, q), f, q)


def _l_powmod(a: list[int], e: int, f: list[int], q: int) -> list[int]:
    out = [1]
    base = _l_mod(a, f, q)
    while e:
        if e & 1:
            out = _l_mulmod(out, base, f, q)
        base = _l_mulmod(base, base, f, q)
        e >>= 1
    return out


def _l_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = _l_trim(list(a)), _l_trim(list(b))
    while b:
        inv_lead = pow(b[-1], q - 2, q)
        bm = [(c * inv_lead) % q for c in b]
        a, b = b, _l_mod(a, bm, q)
    return a


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _nibble_table(a: int) -> tuple[int, ...]:
    """Carry-less products a * v for the 16 nibbles v, unreduced."""
    t1 = a << 1
    t2 = a << 2
    t3 = a << 3
    return (
        0, a, t1, t1 ^ a, t2, t2 ^ a, t2 ^ t1, t2 ^ t1 ^ a,
        t3, t3 ^ a, t3 ^ t1, t3 ^ t1 ^ a, t3 ^ t2, t3 ^ t2 ^ a,
        t3 ^ t2 ^ t1, t3 ^ t2 ^ t1 ^ a,
    )


class FieldCtx:
    """Shared interface of binary and odd-prime field contexts.

    Elements are reduced ints in [0, q^m); `zero` is 0 and `one` is 1; for
    m > 1 the residue class of x is the int q.
    """

    q: int
    m: int
    modulus: tuple[int, ...]  # coefficients low degree first, length m+1
    order: int
    _frob_imgs: dict[int, list[int]]  # i -> images of the basis under a -> a^(q^i)

    zero = 0
    one = 1

    # -- subclass interface -------------------------------------------------
    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def _apply_frob(self, imgs: list[int], a: int) -> int:
        """The F_q-linear map sending basis element x^j to imgs[j], at a."""
        raise NotImplementedError

    def coeffs(self, a: int) -> list[int]:
        raise NotImplementedError

    def encode(self, cs: list[int]) -> int:
        raise NotImplementedError

    def random(self, rng) -> int:
        raise NotImplementedError

    # -- shared -------------------------------------------------------------
    def frob(self, a: int, i: int = 1) -> int:
        """a^(q^i); negative i is the inverse automorphism (i mod m)."""
        i %= self.m
        if i == 0 or a == 0:
            return a
        return self._apply_frob(self._frob_images(i), a)

    def _frob_images(self, i: int) -> list[int]:
        imgs = self._frob_imgs.get(i)
        if imgs is None:
            prev = self._frob_images(i - 1)
            imgs = [self._apply_frob(prev, v) for v in self._frob_imgs[1]]
            self._frob_imgs[i] = imgs
        return imgs

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def random_nonzero(self, rng) -> int:
        while True:
            a = self.random(rng)
            if a:
                return a

    def mul_row(self, a: int, row: list[int]) -> list[int]:
        return [self.mul(a, b) for b in row]

    def mac_row(self, acc: list[int], a: int, row: list[int]) -> None:
        """acc[j] += a * row[j] in place."""
        for j, b in enumerate(row):
            if b:
                acc[j] = self.add(acc[j], self.mul(a, b))

    def frob_row(self, row: list[int], i: int = 1) -> list[int]:
        return [self.frob(a, i) for a in row]

    def to_hex(self, a: int) -> str:
        return format(a, "x")

    def from_hex(self, s: str) -> int:
        a = int(s, 16)
        if not 0 <= a < self.order:
            raise ValueError(f"element {s!r} out of range for this field")
        return a

    def check_same(self, other: "FieldCtx") -> None:
        if self is not other and (self.q, self.m, self.modulus) != (
            other.q,
            other.m,
            other.modulus,
        ):
            raise ValueError("field context mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.q, self.m, self.modulus) == (other.q, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, m={self.m}, modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        return {"q": self.q, "m": self.m, "modulus": list(self.modulus)}


class _BinaryCtx(FieldCtx):
    """F_{2^m} with bit-packed elements and carry-less multiplication."""

    def __init__(self, m: int, modulus: tuple[int, ...]):
        self.q = 2
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        self._mask = (1 << m) - 1
        f = 0
        for i, c in enumerate(modulus):
            f |= (c & 1) << i
        self._f = f
        # reduction tables: red[j][v] = (v << (m + 4j)) mod f
        nred = max(1, (m + 2) // 4)  # covers product bits m .. 2m-2
        self._red = []
        for j in range(nred):
            self._red.append([_b_mod(v << (m + 4 * j), f) for v in range(16)])
        # Frobenius images of the basis, lazily extended to higher powers
        self._frob_imgs: dict[int, list[int]] = {
            1: [_b_mod(1 << (2 * j), f) for j in range(m)]
        }

    def _reduce(self, v: int) -> int:
        lo = v & self._mask
        hi = v >> self.m
        red = self._red
        j = 0
        while hi:
            lo ^= red[j][hi & 15]
            hi >>= 4
            j += 1
        return lo

    def _mul_nibble(self, a: int, b: int) -> int:
        tab = _nibble_table(a)
        acc = 0
        shift = 0
        while b:
            acc ^= tab[b & 15] << shift
            b >>= 4
            shift += 4
        return self._reduce(acc)

    # -- arithmetic ----------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._mul_nibble(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid on GF(2)[x]: r0 = s0*a mod f throughout
        r0, r1 = self._f, a
        s0, s1 = 0, 1
        while r1:
            d = r0.bit_length() - r1.bit_length()
            if d < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            r0 ^= r1 << d
            s0 ^= s1 << d
        if r0 != 1:
            raise AssertionError("gcd != 1; modulus not irreducible")
        return self._reduce(s0)

    @staticmethod
    def _apply_frob(imgs: list[int], a: int) -> int:
        acc = 0
        j = 0
        while a:
            if a & 1:
                acc ^= imgs[j]
            a >>= 1
            j += 1
        return acc

    def coeffs(self, a: int) -> list[int]:
        return [(a >> i) & 1 for i in range(self.m)]

    def encode(self, cs: list[int]) -> int:
        if len(cs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(cs)}")
        a = 0
        for i, c in enumerate(cs):
            a |= (c % 2) << i
        return a

    def random(self, rng) -> int:
        nbytes = (self.m + 7) // 8
        return int.from_bytes(rng.bytes(nbytes), "little") & self._mask


class _PrimeCtx(FieldCtx):
    """F_{q^m} for odd prime q; elements are base-q digit encodings."""

    def __init__(self, q: int, m: int, modulus: tuple[int, ...]):
        self.q = q
        self.m = m
        self.modulus = modulus
        self.order = q**m
        self._f = list(modulus)
        self._pow_q = [q**i for i in range(m + 1)]
        xq = _l_powmod([0, 1], q, self._f, q)
        imgs1 = []
        acc = [1]
        for _ in range(m):
            imgs1.append(self._enc(acc))
            acc = _l_mulmod(acc, xq, self._f, q)
        # imgs1[j] should be (x^j)^q = (x^q)^j
        self._frob_imgs: dict[int, list[int]] = {1: imgs1}

    def _dec(self, a: int) -> list[int]:
        q = self.q
        out = []
        for _ in range(self.m):
            out.append(a % q)
            a //= q
        return out

    def _enc(self, cs: list[int]) -> int:
        # accepts any length <= m (reduced polynomials may be short)
        a = 0
        for i, c in enumerate(cs):
            a += (c % self.q) * self._pow_q[i]
        return a

    def add(self, a: int, b: int) -> int:
        da, db = self._dec(a), self._dec(b)
        return self._enc([(x + y) % self.q for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        da, db = self._dec(a), self._dec(b)
        return self._enc([(x - y) % self.q for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._enc([(-c) % self.q for c in self._dec(a)])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        pa = _l_trim(self._dec(a))
        pb = _l_trim(self._dec(b))
        return self._enc(_l_mulmod(pa, pb, self._f, self.q))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        q = self.q

        def poly_sub(u: list[int], v: list[int]) -> list[int]:
            n = max(len(u), len(v))
            u = u + [0] * (n - len(u))
            v = v + [0] * (n - len(v))
            return _l_trim([(x - y) % q for x, y in zip(u, v)])

        # r0 = s0*a mod f throughout; classic polynomial xgcd
        r0, r1 = list(self._f), _l_trim(self._dec(a))
        s0, s1 = [], [1]
        while r1:
            lead = pow(r1[-1], q - 2, q)
            quo = [0] * max(len(r0) - len(r1) + 1, 1)
            rem = list(r0)
            while len(rem) >= len(r1) and rem:
                c = (rem[-1] * lead) % q
                d = len(rem) - len(r1)
                quo[d] = c
                for i in range(len(r1)):
                    rem[d + i] = (rem[d + i] - c * r1[i]) % q
                _l_trim(rem)
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(s0, _l_mul(quo, s1, q))
        # r0 = gcd, a nonzero constant since f is irreducible
        c_inv = pow(r0[0], q - 2, q)
        return self._enc(_l_mod([(c * c_inv) % q for c in s0], self._f, q))

    def _apply_frob(self, imgs: list[int], a: int) -> int:
        acc = [0] * self.m
        q = self.q
        for j, c in enumerate(self._dec(a)):
            if c:
                img = self._dec(imgs[j])
                for t in range(self.m):
                    acc[t] = (acc[t] + c * img[t]) % q
        return self._enc(acc)

    def coeffs(self, a: int) -> list[int]:
        return self._dec(a)

    def encode(self, cs: list[int]) -> int:
        if len(cs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(cs)}")
        return self._enc(cs)

    def random(self, rng) -> int:
        digits = rng.integers(0, self.q, size=self.m)
        return self._enc([int(d) for d in digits])


def _verify_irreducible_binary(m: int, f: int) -> bool:
    x = _b_mod(2, f)
    t = x
    for d in range(1, m + 1):
        t = _b_mulmod(t, t, f)  # t = x^(2^d) mod f
        if d < m and m % d == 0:
            if _b_gcd(t ^ x, f) != 1:
                return False
    return t == x


def _verify_irreducible_prime(q: int, m: int, f: list[int]) -> bool:
    x = _l_mod([0, 1], f, q)
    t = list(x)
    for d in range(1, m + 1):
        t = _l_powmod(t, q, f, q)  # t = x^(q^d) mod f
        if d < m and m % d == 0:
            diff = [
                (a - b) % q
                for a, b in zip(t + [0] * max(0, len(x) - len(t)),
                                x + [0] * max(0, len(t) - len(x)))
            ]
            g = _l_gcd(diff, f, q)
            if len(g) > 1:
                return False
    tt = t + [0] * max(0, len(x) - len(t))
    xx = x + [0] * max(0, len(t) - len(x))
    return tt == xx


def _search_modulus(q: int, m: int) -> tuple[int, ...]:
    if q == 2:
        for low in range(1, 1 << m, 2):  # constant term must be 1
            f = (1 << m) | low
            if _verify_irreducible_binary(m, f):
                return tuple((f >> i) & 1 for i in range(m + 1))
        raise AssertionError(f"no irreducible polynomial of degree {m} found")
    bound = q**m
    for v in range(1, bound):
        if v % q == 0:
            continue  # constant term 0 is reducible for m >= 1
        digits = []
        t = v
        for _ in range(m):
            digits.append(t % q)
            t //= q
        f = digits + [1]
        if _verify_irreducible_prime(q, m, f):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {m} found")


def _verify_frobenius_order(ctx: FieldCtx) -> None:
    # applying x -> x^q m times must be the identity on the basis
    for j in range(ctx.m):
        e = ctx.encode([1 if t == j else 0 for t in range(ctx.m)])
        v = e
        for _ in range(ctx.m):
            v = ctx.frob(v, 1)
        if v != e:
            raise ValueError("Frobenius table does not have order m; bad modulus")


@functools.lru_cache(maxsize=None)
def _field_cached(q: int, m: int, modulus: tuple[int, ...] | None) -> FieldCtx:
    if not _is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if m < 1:
        raise ValueError(f"extension degree m = {m} must be >= 1")
    if modulus is None:
        modulus = _search_modulus(q, m)
    else:
        modulus = tuple(c % q for c in modulus)
        if len(modulus) != m + 1:
            raise ValueError(f"modulus must have {m + 1} coefficients")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if q == 2:
            f = 0
            for i, c in enumerate(modulus):
                f |= c << i
            if not _verify_irreducible_binary(m, f):
                raise ValueError("modulus is not irreducible over F_2")
        else:
            if not _verify_irreducible_prime(q, m, list(modulus)):
                raise ValueError(f"modulus is not irreducible over F_{q}")
    ctx = _BinaryCtx(m, modulus) if q == 2 else _PrimeCtx(q, m, modulus)
    _verify_frobenius_order(ctx)
    return ctx


def field(q: int, m: int, modulus: list[int] | tuple[int, ...] | None = None) -> FieldCtx:
    """Create (or fetch the cached) context for F_{q^m}.

    `modulus` is the coefficient vector of a monic irreducible degree-m
    polynomial, low degree first; omit it for the deterministic default.
    """
    key = tuple(modulus) if modulus is not None else None
    return _field_cached(q, m, key)


def field_from_json(obj: dict) -> FieldCtx:
    return field(int(obj["q"]), int(obj["m"]), [int(c) for c in obj["modulus"]])
