"""Brute-force ground truth: explicit matrix groups over small fields.

Everything the closed-form side claims about spectra can be cross-checked
here at small parameters: build standard generators, close them under
multiplication (breadth-first, with elements deduplicated by a packed
integer key), compute the centre as the group's intersection with the
generators' commutant algebra (a linear system over GF(q)), read off
element orders modulo that centre by walking each cyclic subgroup once,
and compare against the formulas.

Fields GF(p^m) are realized as integer codes 0..q-1 (base-p packed
polynomial coefficients) with exp/log tables for multiplication, so field
operations are table lookups.  MatrixGF is the plain reference arithmetic
on square matrices; closure, centre, element orders, sampling and the
order of the twisted element run on one engine for every field, in which
a whole matrix is one int holding the base-p digits of its entries, a row
is added by XOR (p = 2) or a digit-wise add with one masked reduction (odd
p), and a product is a few table lookups per row.  Every order is read off
one power walk, g, g^2, ... up to the first central power.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import random
from functools import lru_cache
from itertools import repeat

from . import spectra
from .errors import DomainError, ResourceError, UsageError
from .spectra import SpectrumGens

DEFAULT_CAP = 2_000_000

_ORDER_BOUND = 10_000_000


# ---------------------------------------------------------------------------
# finite fields


def _poly_mulmod(a: tuple, b: tuple, mod: tuple, p: int) -> tuple:
    """Multiply two coefficient tuples (ascending degree) modulo the monic
    polynomial mod, all over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, mod, p)


def _monic_polys(p: int, deg: int):
    for code in range(p**deg):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        yield tuple(coeffs) + (1,)


def _poly_mod(a: tuple, mod: tuple, p: int) -> tuple:
    out = list(a)
    deg_m = len(mod) - 1
    for i in range(len(out) - 1, deg_m - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(deg_m):
                out[i - deg_m + j] = (out[i - deg_m + j] - c * mod[j]) % p
    out = out[:deg_m] if len(out) > deg_m else out
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _is_irreducible(poly: tuple, p: int) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for divisor in _monic_polys(p, d):
            if _poly_mod(poly, divisor, p) == (0,):
                return False
    return True


class Field:
    """GF(p^m) on integer codes.  Code 0 is zero, code 1 is one; nonzero
    codes multiply through exp/log tables for a fixed primitive element."""

    def __init__(self, p: int, m: int):
        q = p**m
        self.p, self.m, self.q = p, m, q
        self.modulus = next(
            poly for poly in _monic_polys(p, m) if _is_irreducible(poly, p)
        )
        if q == 2:
            self.gen = 1
            self.exp = [1]
            self.log = [0, 0]
            return
        # find a primitive element and fill exp/log along the way
        for cand in range(2, q):
            cand_poly = self._decode(cand)
            exp = [1]
            cur = (1,)
            for _ in range(q - 2):
                cur = _poly_mulmod(cur, cand_poly, self.modulus, p)
                code = self._encode(cur)
                if code == 1:
                    break
                exp.append(code)
            if len(exp) == q - 1:
                break
        else:
            raise AssertionError(f"no primitive element in GF({q})")
        self.gen = cand
        self.exp = exp
        self.log = [0] * q
        for i, code in enumerate(exp):
            self.log[code] = i

    def _decode(self, code: int) -> tuple:
        p = self.p
        coeffs = []
        for _ in range(self.m):
            coeffs.append(code % p)
            code //= p
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def _encode(self, coeffs: tuple) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("inverse of zero")
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k <= 0:
                raise DomainError("0 to a non-positive power")
            return 0
        return self.exp[(self.log[a] * k) % (self.q - 1)]

    def sub_q(self) -> int:
        """The order of the index-2 subfield, for fields of even degree."""
        if self.m % 2:
            raise DomainError(f"GF({self.q}) has no index-2 subfield")
        return self.p ** (self.m // 2)

    def conj(self, a: int) -> int:
        """The involutory field automorphism x -> x^sqrt(q)."""
        return self.pow(a, self.sub_q()) if a else 0

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(p: int, m: int) -> Field:
    if m < 1 or p < 2:
        raise DomainError(f"bad field parameters ({p}, {m})")
    from . import arith

    if not arith.is_prime(p):
        raise DomainError(f"field characteristic {p} is not prime")
    if p**m > 4096:
        raise DomainError(f"field GF({p**m}) exceeds the supported table size")
    return Field(p, m)


def field_of_order(q: int) -> Field:
    return field(*spectra.split_prime_power(q))


# ---------------------------------------------------------------------------
# matrices


class MatrixGF:
    """An immutable square matrix over a Field: the plain reference
    arithmetic, entry by entry, that the packed engine is tested against."""

    __slots__ = ("field", "rows")

    def __init__(self, fld: Field, rows):
        rows = tuple(tuple(r) for r in rows)
        dim = len(rows)
        for r in rows:
            if len(r) != dim:
                raise DomainError("matrix must be square")
            for e in r:
                if not 0 <= e < fld.q:
                    raise DomainError(f"entry {e} out of range for {fld}")
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGF is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, fld: Field, dim: int) -> MatrixGF:
        return cls(fld, tuple(
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        ))

    def is_identity(self) -> bool:
        return all(
            e == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def conj_entries(self) -> MatrixGF:
        f = self.field
        return MatrixGF(f, tuple(tuple(f.conj(e) for e in row) for row in self.rows))

    def transpose(self) -> MatrixGF:
        return MatrixGF(self.field, tuple(zip(*self.rows)))

    def __mul__(self, other: MatrixGF) -> MatrixGF:
        f = self.field
        if other.field is not f:
            raise DomainError("matrices over different fields")
        cols_b = tuple(zip(*other.rows))
        out = []
        for arow in self.rows:
            out.append(tuple(
                _dot(f, arow, bcol) for bcol in cols_b
            ))
        return MatrixGF(f, out)

    def inverse(self) -> MatrixGF:
        f, d = self.field, self.dim
        # reducing [A | I] leaves [I | A^-1] exactly when A is invertible
        pivots = _reduced_echelon(f, (
            list(row) + [1 if i == j else 0 for j in range(d)]
            for i, row in enumerate(self.rows)
        ))
        if any(col not in pivots for col in range(d)):
            raise DomainError("matrix is singular")
        return MatrixGF(f, tuple(tuple(pivots[i][d:]) for i in range(d)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.rows))

    def __repr__(self) -> str:
        return f"MatrixGF({self.field}, {self.rows})"


def _dot(f: Field, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = f.add(acc, f.mul(x, y))
    return acc


def _sub_multiple(f: Field, row, c: int, other) -> list:
    """row - c * other, entrywise: the elementary row operation."""
    neg_c = f.neg(c)
    return [f.add(x, f.mul(neg_c, y)) for x, y in zip(row, other)]


def _reduced_echelon(f: Field, rows) -> dict[int, list]:
    """Reduced row echelon form of the rows, taken one at a time, as a map
    pivot column -> row with 1 there and 0 at every other pivot column."""
    pivots: dict[int, list] = {}
    for row in rows:
        for col, prow in pivots.items():
            if row[col]:
                row = _sub_multiple(f, row, row[col], prow)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = f.inv(row[lead])
        row = [f.mul(inv, x) for x in row]
        for col, prow in pivots.items():
            if prow[lead]:
                pivots[col] = _sub_multiple(f, prow, prow[lead], row)
        pivots[lead] = row
    return pivots


# ---------------------------------------------------------------------------
# the closure engine

# A matrix is one int, row i at bits i * row_bits.  Each entry's code is
# written as its base-p digits, one per b-bit field: b = 1 for p = 2, where
# row addition is XOR; for odd p each field has a guard bit, so adding two
# rows digit by digit never carries into the next digit and one masked
# subtraction brings every digit back below p.  The map row -> row * B is
# GF(p)-linear in the digits of the row, so a product is read off one lookup
# table per slice of consecutive digit fields (the method of Four Russians).
# Slices follow digit fields rather than whole entries, so a table's size
# does not grow with the field's degree: at most 2^_SLICE_BITS entries, or
# 2^b when one digit field alone is wider (p > 127).

_SLICE_BITS = 8


class _Engine:
    """Packed-int arithmetic for the dim x dim matrices over one field:
    encode/decode convert between rows of codes and keys, tables(B) readies
    right multiplication by B, and mul(A, tables(B)) is the key of A * B."""

    def __init__(self, fld: Field, dim: int):
        p, m = fld.p, fld.m
        b = 1 if p == 2 else p.bit_length() + 1
        self.p, self.b = p, b
        entry_bits = b * m
        row_bits = entry_bits * dim
        self.entry_mask = (1 << entry_bits) - 1
        self.row_mask = (1 << row_bits) - 1
        self.row_shifts = range(0, dim * row_bits, row_bits)
        self.entry_shifts = range(0, row_bits, entry_bits)
        self.digits = [self._spread(c, m) for c in range(fld.q)]
        self.code_of = {packed: c for c, packed in enumerate(self.digits)}
        # scale[t - 1]: packed entry -> packed entry times x^t (code p^t)
        self.scale = [
            {self.digits[c]: self.digits[fld.mul(p**t, c)] for c in range(fld.q)}
            for t in range(1, m)
        ]
        # per slice of a row: its first and end field, index mask, (source,
        # target) shift of each row, and the layout that spreads a table
        # indexed by base-p digit values over b-bit fields (None for p = 2,
        # where the two agree)
        fields, per_slice = dim * m, max(1, _SLICE_BITS // b)
        self.slices = []
        for first in range(0, fields, per_slice):
            n = min(per_slice, fields - first)
            layout = None
            if p != 2:
                layout = [0] * (1 << (n * b))
                for index in range(p**n):
                    layout[self._spread(index, n)] = index
            places = [(rs + first * b, rs) for rs in self.row_shifts]
            self.slices.append(
                (first, first + n, (1 << (n * b)) - 1, places, layout)
            )
        if p == 2:
            self.add = operator.xor
        else:
            unit = sum(1 << (b * i) for i in range(dim * fields))
            bias = ((1 << (b - 1)) - p) * unit
            high = (1 << (b - 1)) * unit
            top = b - 1

            def add(x: int, y: int) -> int:
                s = x + y
                return s - (((s + bias) & high) >> top) * p

            self.add = add
        self.identity = self.encode(MatrixGF.identity(fld, dim).rows)

    def _spread(self, value: int, n: int) -> int:
        """The n lowest base-p digits of value, one per b-bit field."""
        packed = 0
        for t in range(n):
            value, digit = divmod(value, self.p)
            packed |= digit << (self.b * t)
        return packed

    def encode(self, rows) -> int:
        digits, key = self.digits, 0
        for rs, row in zip(self.row_shifts, rows):
            for es, e in zip(self.entry_shifts, row):
                key |= digits[e] << (rs + es)
        return key

    def decode(self, key: int) -> tuple:
        code_of, mask, entry_shifts = self.code_of, self.entry_mask, self.entry_shifts
        return tuple(
            tuple(code_of[(key >> (rs + es)) & mask] for es in entry_shifts)
            for rs in self.row_shifts
        )

    def tables(self, key: int) -> list:
        """Right multiplication by the matrix B = `key`: per slice of a row,
        a table from the slice's digits to that digit row times B.  A table
        doubles up field by field, copy a of the table so far adding a times
        the field's unit row times B, and is then spread over the b-bit
        fields; the spread leaves zeros where a digit would reach p."""
        add, emask, row_mask = self.add, self.entry_mask, self.row_mask
        units = []
        for rs in self.row_shifts:
            row = (key >> rs) & row_mask
            units.append(row)
            for scale in self.scale:
                unit = 0
                for es in self.entry_shifts:
                    unit |= scale[(row >> es) & emask] << es
                units.append(unit)
        out = []
        for first, end, mask, places, layout in self.slices:
            tab = [0]
            for unit in units[first:end]:
                grown, multiple = list(tab), 0
                for _ in range(1, self.p):
                    multiple = add(multiple, unit)
                    grown += map(add, tab, repeat(multiple))
                tab = grown
            if layout is not None:
                tab = [tab[i] for i in layout]
            out.append((tab, mask, places))
        return out

    def mul(self, key: int, tables) -> int:
        """The key of A * B for A = `key` and `tables` = tables(B).  The rows'
        lookups for one slice sit in disjoint bits, so they are ORed into one
        int and the slices added once each."""
        add, out = self.add, 0
        for tab, mask, places in tables:
            part = 0
            for source, target in places:
                part |= tab[(key >> source) & mask] << target
            out = add(out, part)
        return out


class ClosedGroup:
    """The multiplicative closure of a generator list: the set of its
    elements' packed integer keys, plus the machinery to map keys back to
    matrices."""

    def __init__(self, fld: Field, dim: int, engine, key_set, generators):
        self.field = fld
        self.dim = dim
        self.engine = engine
        self.key_set = key_set
        self.generators = list(generators)

    def __len__(self) -> int:
        return len(self.key_set)

    def elements(self):
        for key in self.key_set:
            yield MatrixGF(self.field, self.engine.decode(key))


def close_group(generators, cap: int = DEFAULT_CAP) -> ClosedGroup:
    """Breadth-first closure of the generated group.

    Raises ResourceError as soon as more than `cap` elements are seen.
    """
    gens = list(generators)
    if not gens:
        raise DomainError("no generators")
    fld, dim = gens[0].field, gens[0].dim
    for g in gens:
        if g.field is not fld or g.dim != dim:
            raise DomainError("generators live in different matrix rings")
        g.inverse()  # raises on singular input
    if cap < 1:
        raise DomainError(f"cap must be positive, got {cap}")
    eng = _Engine(fld, dim)
    tabs = [eng.tables(eng.encode(g.rows)) for g in gens]
    queue = [eng.identity]
    key_set = {eng.identity}
    # the loop also visits the keys appended to the queue while it runs
    for key in queue:
        for tab in tabs:
            k = eng.mul(key, tab)
            if k not in key_set:
                if len(key_set) >= cap:
                    raise ResourceError(
                        f"closure exceeded the cap of {cap} elements"
                    )
                key_set.add(k)
                queue.append(k)
    return ClosedGroup(fld, dim, eng, key_set, gens)


def _commutant_basis(generators) -> list[list[int]]:
    """A basis of the matrices X with XA = AX for every generator A, each
    as a row-major vector of length dim^2: the nullspace of the dim^2
    linear equations (XA - AX)[i][j] = 0 per generator, read off the free
    columns of their reduced echelon form."""
    f, d = generators[0].field, generators[0].dim
    n = d * d

    def equations():
        for g in generators:
            a = g.rows
            for i in range(d):
                for j in range(d):
                    # (XA - AX)[i][j] = sum_k X[i][k] A[k][j] - A[i][k] X[k][j]
                    row = [0] * n
                    for k in range(d):
                        row[i * d + k] = f.add(row[i * d + k], a[k][j])
                        row[k * d + j] = f.add(row[k * d + j], f.neg(a[i][k]))
                    yield row

    pivots = _reduced_echelon(f, equations())
    basis = []
    for free in range(n):
        if free not in pivots:
            vec = [0] * n
            vec[free] = 1
            for col, prow in pivots.items():
                vec[col] = f.neg(prow[free])
            basis.append(vec)
    return basis


def centre_of(group: ClosedGroup) -> list[MatrixGF]:
    """The centre of a closed group, computed (never assumed) as its
    intersection with the commutant algebra of the generators.

    The commutant is the solution space of XA = AX over all generators A,
    found by linear algebra; its q^k members are enumerated and those in
    the group's key set kept, in the order of their coordinates on the
    basis.  For absolutely irreducible groups k = 1, so this touches q
    matrices.  Raises ResourceError when q^k exceeds DEFAULT_CAP."""
    f, d, eng = group.field, group.dim, group.engine
    basis = _commutant_basis(group.generators)
    size = f.q ** len(basis)
    if size > DEFAULT_CAP:
        raise ResourceError(
            f"commutant has {size} elements, over the cap of {DEFAULT_CAP}"
        )
    out = []
    for code in range(size):
        vec = [0] * (d * d)
        rest = code
        for b in basis:
            rest, c = divmod(rest, f.q)
            if c:
                vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, b)]
        rows = tuple(tuple(vec[i * d : (i + 1) * d]) for i in range(d))
        if eng.encode(rows) in group.key_set:
            out.append(MatrixGF(f, rows))
    return out


def _validated_centre_keys(eng, generators, centre) -> set:
    """Key set for a centre argument, after checking it is made of elements
    central for the generators, is closed under product, and contains the
    identity."""
    if centre is None:
        return {eng.identity}
    mats = list(centre)
    if not mats:
        raise DomainError("centre argument is empty")
    fld, dim = mats[0].field, mats[0].dim
    ident = MatrixGF.identity(fld, dim)
    if ident not in mats:
        raise DomainError("centre must contain the identity")
    for z in mats:
        for g in generators:
            if z * g != g * z:
                raise DomainError(
                    "centre argument contains a non-central element"
                )
    keyset = {eng.encode(z.rows) for z in mats}
    for a in mats:
        for b in mats:
            if eng.encode((a * b).rows) not in keyset:
                raise DomainError("centre argument is not closed under product")
    return keyset


def _central_power_walk(eng, key: int, centre_keys, bound: int) -> list[int]:
    """The powers g, g^2, ..., g^(n-1) of g = `key` that come before the
    first power g^n in `centre_keys`, so n = len + 1 is the order of g
    modulo the centre (an empty list when g itself is central).  Raises
    ResourceError when n would exceed `bound`."""
    powers = []
    if key in centre_keys:
        return powers
    mul, tabs, acc = eng.mul, eng.tables(key), key
    for _ in range(bound - 1):
        powers.append(acc)
        acc = mul(acc, tabs)
        if acc in centre_keys:
            return powers
    raise ResourceError(f"element order exceeds {bound}")


def element_orders(group: ClosedGroup, centre=None) -> SpectrumGens:
    """The set of element orders of group/centre, as a reduced generator
    list.  With centre None this is the plain order spectrum.

    Each cyclic subgroup is walked once: take an element g still to do and
    step through g, g^2, ... until g^n lies in the centre.  Then g^j has
    order n / gcd(j, n) modulo the centre for every j < n, so every power
    still to do is recorded and struck off, at the cost of one set of
    tables per walk rather than one per element."""
    from math import gcd

    centre_keys = _validated_centre_keys(group.engine, group.generators, centre)
    if not centre_keys <= group.key_set:
        raise DomainError("centre argument is not inside the group")
    todo = group.key_set - centre_keys
    seen: set[int] = set()
    while todo:
        powers = _central_power_walk(
            group.engine, todo.pop(), centre_keys, len(group)
        )
        n = len(powers) + 1
        seen.add(n)
        for j in range(2, n):
            if powers[j - 1] in todo:
                todo.remove(powers[j - 1])
                seen.add(n // gcd(j, n))
    if not seen:
        seen.add(1)
    return spectra.reduce_gens(seen, label=f"enumerated[{len(group)}]")


# ---------------------------------------------------------------------------
# standard generators


def _symplectic_form(fld: Field, dim: int) -> MatrixGF:
    """The alternating form: antidiagonal, +1 above the middle, -1 below."""
    half = dim // 2
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][dim - 1 - i] = 1 if i < half else fld.neg(1)
    return MatrixGF(fld, rows)


def _transvection(fld: Field, dim: int, v, lam: int) -> MatrixGF:
    """x -> x + lam * B(x, v) * v for the alternating form B; preserves the
    form for every v and lam."""
    j = _symplectic_form(fld, dim)
    jv = [_dot(fld, row, v) for row in j.rows]
    rows = [
        tuple(
            fld.add(1 if i == k else 0, fld.mul(lam, fld.mul(v[i], jv[k])))
            for k in range(dim)
        )
        for i in range(dim)
    ]
    return MatrixGF(fld, rows)


def preserves_symplectic_form(mat: MatrixGF) -> bool:
    j = _symplectic_form(mat.field, mat.dim)
    return mat.transpose() * j * mat == j


def _hermitian_form(fld: Field, dim: int) -> MatrixGF:
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][dim - 1 - i] = 1
    return MatrixGF(fld, rows)


def preserves_hermitian_form(mat: MatrixGF) -> bool:
    """Whether A * J * conj(A)^T = J for the antidiagonal hermitian form."""
    j = _hermitian_form(mat.field, mat.dim)
    return mat * j * mat.conj_entries().transpose() == j


def _det(mat: MatrixGF) -> int:
    f, d = mat.field, mat.dim
    rows = [list(r) for r in mat.rows]
    det = 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = f.neg(det)
        det = f.mul(det, rows[col][col])
        inv_p = f.inv(rows[col][col])
        for r in range(col + 1, d):
            if rows[r][col]:
                c = f.mul(inv_p, rows[r][col])
                rows[r] = _sub_multiple(f, rows[r], c, rows[col])
    return det


def _gf_basis(fld: Field) -> list[int]:
    """Codes of 1, x, x^2, ... : a GF(p)-basis of the field."""
    return [fld.p**i for i in range(fld.m)]


def _sp_generators(fld: Field, dim: int) -> list[MatrixGF]:
    """Symplectic transvections along the unit vectors and consecutive sums,
    with scalars running over a GF(p)-basis.  Verified by closure at the
    supported parameters to generate Sp(dim, q)."""
    vectors = []
    for i in range(dim):
        vectors.append(tuple(1 if j == i else 0 for j in range(dim)))
    for i in range(dim - 1):
        vectors.append(tuple(1 if j in (i, i + 1) else 0 for j in range(dim)))
    gens = []
    for v in vectors:
        for lam in _gf_basis(fld):
            gens.append(_transvection(fld, dim, v, lam))
    return [g for g in gens if not g.is_identity()]


def _su4_generators(fld: Field) -> list[MatrixGF]:
    """Generators of SU_4(q) inside SL_4(q^2), q even: two unitary
    transvections, two paired root elements, the form matrix (an element of
    the group) and a torus element."""
    one = 1
    s = fld.gen
    sq = fld.conj(s)
    neg_sq = fld.neg(sq)

    def mat(entries):
        return MatrixGF(fld, entries)

    e = [[one if i == j else 0 for j in range(4)] for i in range(4)]

    def with_entry(extra):
        rows = [list(r) for r in e]
        for (i, j), val in extra.items():
            rows[i][j] = val
        return mat(rows)

    x_t = with_entry({(0, 3): one})
    x_s = with_entry({(0, 3): _subfield_code(fld)})
    y_s = with_entry({(0, 1): s, (2, 3): neg_sq})
    z_s = with_entry({(0, 2): s, (1, 3): neg_sq})
    j = _hermitian_form(fld, 4)
    a = fld.gen
    d_a = mat([
        [a, 0, 0, 0],
        [0, fld.inv(a), 0, 0],
        [0, 0, fld.conj(a), 0],
        [0, 0, 0, fld.inv(fld.conj(a))],
    ])
    return [x_t, x_s, y_s, z_s, j, d_a]


def _subfield_code(fld: Field) -> int:
    """A generator of the index-2 subfield's multiplicative group."""
    sub = fld.sub_q()
    # gen^((q^2-1)/(q-1) ... ) lands in the subfield; its order is sub-1
    exponent = (fld.q - 1) // (sub - 1)
    return fld.pow(fld.gen, exponent)


_GOPLUS_4_2_ROWS = (
    # derived from the exhaustive filter over GF(2)^{4x4}: two elements
    # whose closure is the full 72-element orthogonal group of plus type
    ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 0)),
)


def quadratic_form_plus_4(fld: Field, vec) -> int:
    """The plus-type quadratic form x1 x2 + x3 x4 on a 4-vector."""
    x1, x2, x3, x4 = vec
    return fld.add(fld.mul(x1, x2), fld.mul(x3, x4))


def preserves_quadratic_form_plus_4(mat: MatrixGF) -> bool:
    fld = mat.field
    cols = tuple(zip(*mat.rows))
    for code in range(fld.q**4):
        c = code
        vec = []
        for _ in range(4):
            vec.append(c % fld.q)
            c //= fld.q
        image = [
            _dot(fld, vec, col) for col in cols
        ]
        if quadratic_form_plus_4(fld, image) != quadratic_form_plus_4(fld, vec):
            return False
    return True


SUPPORTED_GENERATORS = (
    ("Sp", 4, 2),
    ("Sp", 4, 3),
    ("Sp", 4, 4),
    ("Sp", 6, 2),
    ("Sp", 6, 3),
    ("SU", 4, 2),
    ("SU", 4, 4),
    ("SU", 4, 8),
    ("SU", 4, 16),
    ("SU", 4, 32),
    ("GOplus", 4, 2),
)


def _check_supported(family: str, dim: int, q: int) -> None:
    if (family, dim, q) not in SUPPORTED_GENERATORS:
        raise DomainError(
            f"no standard generators for ({family}, {dim}, {q}); "
            f"supported: {SUPPORTED_GENERATORS}"
        )


def central_scalars(family: str, dim: int, q: int) -> list[MatrixGF]:
    """The scalar matrices lying in the named matrix group: +-I for Sp,
    the scalars z with z^(q+1) = z^dim = 1 for SU, only I for GO+(4, 2).
    Quotienting by them turns matrix orders into orders in the simple
    (or for GO+ the plain) quotient."""
    _check_supported(family, dim, q)
    if family == "SU":
        fld = field_of_order(q * q)
        codes = [
            z
            for z in range(1, fld.q)
            if fld.pow(z, q + 1) == 1 and fld.pow(z, dim) == 1
        ]
    else:
        fld = field_of_order(q)
        codes = [1] if family != "Sp" or fld.p == 2 else [1, fld.neg(1)]
    out = []
    for z in codes:
        rows = [[z if i == j else 0 for j in range(dim)] for i in range(dim)]
        out.append(MatrixGF(fld, rows))
    return out


def standard_generators(family: str, dim: int, q: int) -> list[MatrixGF]:
    """Matrices generating the named group: Sp(dim, q), SU(4, q) (as
    matrices over GF(q^2)), or the full orthogonal group GO+(4, 2)."""
    _check_supported(family, dim, q)
    if family == "Sp":
        gens = _sp_generators(field_of_order(q), dim)
        for g in gens:
            if not preserves_symplectic_form(g):
                raise AssertionError("internal: transvection broke the form")
        return gens
    if family == "SU":
        fld = field_of_order(q * q)
        gens = _su4_generators(fld)
        for g in gens:
            if not preserves_hermitian_form(g) or _det(g) != 1:
                raise AssertionError("internal: generator outside SU4")
        return gens
    fld = field_of_order(q)
    gens = [MatrixGF(fld, rows) for rows in _GOPLUS_4_2_ROWS]
    for g in gens:
        if not preserves_quadratic_form_plus_4(g):
            raise AssertionError("internal: generator outside GO+4")
    return gens


# ---------------------------------------------------------------------------
# the twisted element of order 8


def _twisted_b(fld: Field, t: int) -> MatrixGF:
    # For I + a E12 + b E23 + c E34 + d E13 to preserve the hermitian form
    # one needs a = conj(c), b in the subfield, and d = a * conj(b); with
    # a = t, b = 1, c = t^q that forces the (1,3) entry to be t.
    return MatrixGF(
        fld,
        (
            (1, t, t, 0),
            (0, 1, 1, 0),
            (0, 0, 1, fld.conj(t)),
            (0, 0, 0, 1),
        ),
    )


def _twisting_field(q: int) -> Field:
    """GF(q^2) for q a power of 2, the field the twisted element lives in."""
    if q < 2 or q & (q - 1):
        raise DomainError(f"q must be a power of 2, got {q}")
    return field(2, 2 * (q.bit_length() - 1))


def twisted_order_with_t(q: int, t: int) -> int:
    """Order of the twisted element (B(t), gamma) in SU_4(q).2, for any
    t in GF(q^2) outside GF(q).

    Elements of SU_4(q).2 multiply by (A, i)(B, j) = (A sigma^i(B), i xor j)
    with sigma the entrywise field automorphism.  Odd powers of (B, gamma)
    keep the twist, so they are never the identity, and its square is
    (B sigma(B), 0): the order is twice the order of B sigma(B)."""
    fld = _twisting_field(q)
    if not 0 <= t < fld.q:
        raise DomainError(f"t code {t} out of range for {fld}")
    if fld.conj(t) == t:
        raise DomainError(f"t code {t} lies in the subfield GF({q})")
    b = _twisted_b(fld, t)
    if not preserves_hermitian_form(b) or _det(b) != 1:
        raise AssertionError("internal: B(t) outside SU4")
    square = b * b.conj_entries()
    eng = _Engine(fld, 4)
    order = 2 * (len(_central_power_walk(
        eng, eng.encode(square.rows), {eng.identity}, _ORDER_BOUND
    )) + 1)
    # the fourth power must be the unipotent matrix I + (t^2 + conj(t)^2) E14
    c = fld.add(fld.mul(t, t), fld.mul(fld.conj(t), fld.conj(t)))
    expected = MatrixGF(
        fld,
        (
            (1, 0, 0, c),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ),
    )
    if square * square != expected:
        raise AssertionError("internal: (B gamma)^4 has unexpected shape")
    if c == 0:
        raise AssertionError("internal: t^2 + conj(t)^2 vanished")
    return order


def twisted_order_b_gamma(q: int) -> int:
    """Order of (B, gamma) for the canonical choice of t (a primitive
    element of GF(q^2), never in the subfield)."""
    return twisted_order_with_t(q, _twisting_field(q).gen)


# ---------------------------------------------------------------------------
# sampling and cached enumeration


def sample_orders(generators, count: int, seed: int, centre=None) -> tuple[int, ...]:
    """Orders of `count` seeded-random words in the generators (modulo the
    optional centre), as a sorted tuple.  Deterministic for a fixed seed."""
    gens = list(generators)
    if not gens:
        raise DomainError("no generators")
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    fld, dim = gens[0].field, gens[0].dim
    for g in gens:
        if g.field is not fld or g.dim != dim:
            raise DomainError("generators must live in the same matrix ring")
    eng = _Engine(fld, dim)
    centre_keys = _validated_centre_keys(eng, gens, centre)
    gen_tabs = [eng.tables(eng.encode(g.rows)) for g in gens]
    rng = random.Random(seed)
    seen = set()
    for _ in range(count):
        length = rng.randint(2, 24)
        key = eng.identity
        for _ in range(length):
            key = eng.mul(key, rng.choice(gen_tabs))
        powers = _central_power_walk(eng, key, centre_keys, _ORDER_BOUND)
        seen.add(len(powers) + 1)
    return tuple(sorted(seen))


# Part of every cache file name: a new value makes every entry written under
# an older format or generator encoding a miss.
_CACHE_FORMAT = "enumerate_group/2"


def enumerate_group(
    family: str,
    dim: int,
    q: int,
    cap: int = DEFAULT_CAP,
    cache_dir: str | None = None,
):
    """Close the standard generators, compute the centre, and return
    (group order, centre size, coset-order spectrum).  Results are cached
    on disk keyed by a format tag and the generator set when a cache
    directory is available (argument or ORDSPEC_CACHE_DIR).  Entries are
    written atomically; an entry that does not parse, or whose order,
    centre size and spectrum do not fit together, counts as a miss and is
    recomputed and overwritten."""
    gens = standard_generators(family, dim, q)
    gen_hash = hashlib.sha256(
        f"{_CACHE_FORMAT}:{[g.rows for g in gens]!r}".encode()
    ).hexdigest()[:12]
    cache_dir = cache_dir or os.environ.get("ORDSPEC_CACHE_DIR")
    cache_path = None
    if cache_dir:
        cache_path = os.path.join(
            cache_dir, f"{family}{dim}q{q}-{gen_hash}.json"
        )
        if os.path.exists(cache_path):
            try:
                with open(cache_path, "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
                spec = spectra.parse_spectrum(
                    json.dumps(obj["spectrum"], sort_keys=True, separators=(",", ":"))
                )
                order, centre_size = int(obj["group_order"]), int(obj["centre_size"])
                if (
                    order >= 1
                    and centre_size >= 1
                    and order % centre_size == 0
                    and all((order // centre_size) % g == 0 for g in spec.gens)
                ):
                    return order, centre_size, spec
            except (KeyError, TypeError, ValueError, DomainError, UsageError):
                pass  # unreadable: recomputed and overwritten below
    group = close_group(gens, cap=cap)
    centre = centre_of(group)
    spec = element_orders(group, centre)
    if cache_path:
        import tempfile

        os.makedirs(cache_dir, exist_ok=True)
        obj = {
            "group_order": str(len(group)),
            "centre_size": len(centre),
            "spectrum": json.loads(spectra.serialize(spec)),
        }
        # write a temporary file beside the entry and rename it into place,
        # so an interrupted write never leaves a truncated entry behind
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp_path, cache_path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
    return len(group), len(centre), spec
