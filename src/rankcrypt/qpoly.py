"""The skew ring L of q-linearized polynomials over F_{q^m}.

A linearized polynomial F = sum_i f_i X^[i] (X^[i] meaning X^{q^i}) acts on
F_{q^m} by F(x) = sum_i f_i x^{q^i}, an F_q-linear endomorphism.  The ring
multiplication is composition, so scalars do not commute past monomials:
X^[i] a = a^{q^i} X^[i].

Coefficients are stored low degree first with a nonzero trailing entry; the
zero polynomial is the empty list.  The q-degree of the zero polynomial is
reported as -1.
"""

from __future__ import annotations

from . import linalg as la
from .fields import FieldCtx


class LinPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: list[int]):
        self.ctx = ctx
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinPoly":
        return cls(ctx, [])

    @classmethod
    def monomial(cls, ctx: FieldCtx, i: int, c: int = 1) -> "LinPoly":
        """c X^[i]."""
        if i < 0:
            raise ValueError("negative q-degree")
        return cls(ctx, [0] * i + [c])

    @classmethod
    def random(cls, ctx: FieldCtx, d: int, rng) -> "LinPoly":
        """Uniform polynomial of q-degree exactly d."""
        cs = [ctx.random(rng) for _ in range(d)] + [ctx.random_nonzero(rng)]
        return cls(ctx, cs)

    @property
    def qdeg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinPoly") -> "LinPoly":
        self.ctx.check_same(other.ctx)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self.ctx.add(out[i], c)
        return LinPoly(self.ctx, out)

    def __sub__(self, other: "LinPoly") -> "LinPoly":
        return self + other.scale(self.ctx.neg(1))

    def scale(self, a: int) -> "LinPoly":
        return LinPoly(self.ctx, self.ctx.mul_row(a, self.coeffs))

    def __mul__(self, other: "LinPoly") -> "LinPoly":
        """Skew product: composition, (F*G)(x) = F(G(x))."""
        self.ctx.check_same(other.ctx)
        ctx = self.ctx
        f, g = self.coeffs, other.coeffs
        if not f or not g:
            return LinPoly(ctx, [])
        out = [0] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            if not fi:
                continue
            # X^[i] g_j = g_j^{q^i} X^[i]
            for j, gj in enumerate(g):
                if gj:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(fi, ctx.frob(gj, i)))
        return LinPoly(ctx, out)

    def evaluate(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        xi = x
        for fi in self.coeffs:
            if fi:
                acc = ctx.add(acc, ctx.mul(fi, xi))
            xi = ctx.frob(xi)
        return acc

    def evaluate_vec(self, xs: list[int]) -> list[int]:
        """[F(x) for x in xs]: the matrix of the x^[i] times the coefficient
        vector, on coefficient digit planes (linalg._frob_digits, then
        linalg._clmul_planes)."""
        ctx = self.ctx
        powers = la._frob_digits(ctx, la._coeff_digits(ctx, xs), range(len(self.coeffs)))
        coeffs = la._coeff_digits(ctx, self.coeffs)[:, None]
        return la._from_digits(ctx, la._clmul_planes(ctx, powers, coeffs)[:, :, 0].T)

    def kernel(self) -> list[int]:
        """F_q-basis of {x in F_{q^m} : F(x) = 0}, as field elements.

        Built from the m x m matrix of the induced endomorphism in the
        polynomial basis (column j = coefficients of F(x^j)); dim <= qdeg
        for nonzero F.
        """
        ctx = self.ctx
        m = ctx.m
        units = [ctx.encode([int(i == j) for i in range(m)]) for j in range(m)]
        if self.is_zero():
            return units
        return [ctx.encode(row) for row in la.fq_kernel(ctx, [self.evaluate_vec(units)], m).data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"LinPoly(qdeg={self.qdeg}, coeffs={self.coeffs})"
