"""Brute-force ground truth: explicit matrix groups over small fields.

Everything the closed-form side claims about spectra can be cross-checked
here at small parameters: close a fixed pair of words in the standard
generators under multiplication (breadth-first, with elements deduplicated
by a packed integer key), check the closure against the group's order
formula, sweep its conjugacy classes once, read the centre off them as the
elements alone in their class, read off element orders modulo that centre
from one element per class, and compare against the formulas.  Sampling
draws its random words from the full standard generator lists.

Fields GF(p^m) are realized as integer codes 0..q-1 (base-p packed
polynomial coefficients) with exp/log tables for multiplication, so field
operations are table lookups.  Every matrix product, whether MatrixGF's
or one inside element orders, sampling and the order of the twisted
element, runs on one engine per field and dimension, in which a whole
matrix is one int holding the base-p digits of its entries, a row is added
by XOR (p = 2) or a digit-wise add with one masked reduction (odd p), and a
product is a few table lookups per row.  The closure makes no product of
its own: it holds a matrix as its row indices in GF(q)^dim, a byte each
while that space has at most 256 vectors, reads off one engine product per
row vector where each generator takes each row, and multiplies a whole
breadth-first level by a generator with one bytes.translate.  It numbers
its elements in breadth-first order and records where each one goes under
right multiplication by each generator.  The class sweep strikes each class by
conjugating with the generators, each conjugation a lookup in those tables
with no product.  Every order, in enumeration, sampling and the twisted
element, is found by one routine: baby steps g, g^2, ... up to the first
central power, then giant steps past them, in about 16 + n/16 products for
an order n.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import islice, repeat

from . import arith, spectra
from .errors import DomainError, ResourceError, UnsupportedError, UsageError
from .spectra import FULL, SpectrumGens

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


def _digits(value: int, p: int, n: int) -> tuple:
    """Digits 0..n-1 of value in base p."""
    out = []
    for _ in range(n):
        value, digit = divmod(value, p)
        out.append(digit)
    return tuple(out)


def _monic_polys(p: int, deg: int):
    for code in range(p**deg):
        yield _digits(code, p, deg) + (1,)


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
        # find a primitive element and fill exp/log along the way
        for cand in range(1, q):
            cand_poly = _digits(cand, p, m)
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
        # for odd q, -1 is the one element of multiplicative order 2
        return a if self.p == 2 else self.mul(a, self.exp[(self.q - 1) // 2])

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
    if not arith.is_prime(p):
        raise DomainError(f"field characteristic {p} is not prime")
    if p**m > 4096:
        raise DomainError(f"field GF({p**m}) exceeds the supported table size")
    return Field(p, m)


def field_of_order(q: int) -> Field:
    return field(*spectra.split_prime_power(q))


@lru_cache(maxsize=None)
def _engine(fld: Field, dim: int) -> _Engine:
    """The shared engine for dim x dim matrices over fld.  An engine's
    tables are filled in its constructor and only read afterwards, so one
    instance can serve every caller."""
    return _Engine(fld, dim)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, slots=True)
class MatrixGF:
    """An immutable square matrix over a Field, with at least one row.  Its
    product runs on the packed engine for its field and dimension."""

    field: Field
    rows: tuple

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        dim = len(rows)
        if not dim:
            raise DomainError("matrix must have at least one row")
        for r in rows:
            if len(r) != dim:
                raise DomainError("matrix must be square")
            for e in r:
                if not 0 <= e < self.field.q:
                    raise DomainError(f"entry {e} out of range for {self.field}")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, fld: Field, dim: int) -> MatrixGF:
        return cls(fld, tuple(
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        ))

    def conj_entries(self) -> MatrixGF:
        f = self.field
        return MatrixGF(f, tuple(tuple(f.conj(e) for e in row) for row in self.rows))

    def transpose(self) -> MatrixGF:
        return MatrixGF(self.field, tuple(zip(*self.rows)))

    def __mul__(self, other: MatrixGF) -> MatrixGF:
        f, d = self.field, self.dim
        # the engine packs rows at its own width, so a mixed ring would
        # multiply blocks rather than fail
        if other.field is not f or other.dim != d:
            raise DomainError("matrices over different matrix rings")
        eng = _engine(f, d)
        key = eng.mul(eng.encode(self.rows), eng.tables(eng.encode(other.rows)))
        return MatrixGF(f, eng.decode(key))

    def inverse(self) -> MatrixGF:
        f, d = self.field, self.dim
        # reducing [A | I] leaves [I | A^-1] exactly when A is invertible
        pivots, _ = _reduced_echelon(f, (
            list(row) + [1 if i == j else 0 for j in range(d)]
            for i, row in enumerate(self.rows)
        ))
        if any(col not in pivots for col in range(d)):
            raise DomainError("matrix is singular")
        return MatrixGF(f, tuple(tuple(pivots[i][d:]) for i in range(d)))


def _sub_multiple(f: Field, row, c: int, other) -> list:
    """row - c * other, entrywise: the elementary row operation."""
    neg_c = f.neg(c)
    return [f.add(x, f.mul(neg_c, y)) for x, y in zip(row, other)]


def _reduced_echelon(f: Field, rows) -> tuple[dict[int, list], int]:
    """Reduced row echelon form of the rows, taken one at a time, as a map
    pivot column -> row with 1 there and 0 at every other pivot column, in
    the order the rows were taken, and the product of the leads divided out."""
    pivots: dict[int, list] = {}
    leads = 1
    for row in rows:
        for col, prow in pivots.items():
            if row[col]:
                row = _sub_multiple(f, row, row[col], prow)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        leads = f.mul(leads, row[lead])
        inv = f.inv(row[lead])
        row = [f.mul(inv, x) for x in row]
        for col, prow in pivots.items():
            if prow[lead]:
                pivots[col] = _sub_multiple(f, prow, prow[lead], row)
        pivots[lead] = row
    return pivots, leads


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
# does not grow with the field's degree.  A slice takes the most fields whose
# table has at most 2^_SLICE_BITS entries and whose index, guard bits
# included, is at most _INDEX_BITS wide: 8 fields for p = 2, 4 for p = 3
# (81 entries spread over a 12-bit index), 3 for p = 5, 2 for 7 <= p <= 13,
# and one field alone for larger p.

_SLICE_BITS = 8
_INDEX_BITS = 12


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
        # target) shift of each row, and the index of each base-p digit value
        # once spread over b-bit fields (None for p = 2, where the two agree)
        fields, per_slice = dim * m, 1
        while (
            p ** (per_slice + 1) <= 1 << _SLICE_BITS
            and (per_slice + 1) * b <= _INDEX_BITS
        ):
            per_slice += 1
        # a narrower last slice spreads its values as a prefix of this list
        spread_all = None if p == 2 else [
            self._spread(i, per_slice) for i in range(p**per_slice)
        ]
        self.slices = []
        for first in range(0, fields, per_slice):
            n = min(per_slice, fields - first)
            spread = None if spread_all is None else spread_all[: p**n]
            places = [(rs + first * b, rs) for rs in self.row_shifts]
            self.slices.append(
                (first, first + n, (1 << (n * b)) - 1, places, spread)
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
        """_digits(value, p, n) packed one per b-bit field."""
        digits = _digits(value, self.p, n)
        return sum(digit << (self.b * t) for t, digit in enumerate(digits))

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
        the field's unit row times B, and for odd p is then spread over the
        b-bit fields by writing its p^n rows at their indices; the indices in
        between, where a digit would reach p, stay zero."""
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
        for first, end, mask, places, spread in self.slices:
            tab = [0]
            for unit in units[first:end]:
                grown, multiple = list(tab), 0
                for _ in range(1, self.p):
                    multiple = add(multiple, unit)
                    grown += map(add, tab, repeat(multiple))
                tab = grown
            if spread is not None:
                wide = [0] * (mask + 1)
                for index, row in zip(spread, tab):
                    wide[index] = row
                tab = wide
            out.append((tab, mask, places))
        return out

    def mul(self, key: int, tables) -> int:
        """The key of A * B for A = `key` and `tables` = tables(B).  The rows'
        lookups for one slice sit in disjoint bits, so they are ORed into one
        int and the slices' parts summed, the first taken as it is."""
        add, out = self.add, None
        for tab, mask, places in tables:
            part = 0
            for source, target in places:
                part |= tab[(key >> source) & mask] << target
            out = part if out is None else add(out, part)
        return out


_KEY_BYTES = array("Q").itemsize


@dataclass(eq=False)
class ClosedGroup:
    """The multiplicative closure of a generator list, its elements numbered
    by place, their position in breadth-first order (the identity at 0).
    An element's key holds its row indices v = sum_c code(x[r][c]) q^c in
    GF(q)^dim, of type row_code, padded with zeros to eight bytes and read
    as one array("Q") item; the zero row is 0, so right multiplication,
    which takes each row to a row, keeps the padding zero.  `index` maps
    each key to its place, and `right[j][i]` is the place of x_i * g_j for
    generator g_j.  The breadth-first tree gives x_i = x_parent[i] * g_via[i],
    with parent[i] < i (both -1 at the identity).  `classes` holds the
    conjugacy classes, swept on first use."""

    field: Field
    dim: int
    engine: _Engine
    generators: list
    index: dict
    right: list
    parent: array
    via: array

    def __len__(self) -> int:
        return len(self.index)

    @property
    def row_code(self) -> str:
        """The array type code of one row index: "B" (a byte) while
        GF(q)^dim has at most 256 vectors, else "H"."""
        return "B" if self.field.q**self.dim <= 256 else "H"

    def key(self, rows) -> int:
        """The closure key of the matrix with these rows."""
        q = self.field.q
        data = array(self.row_code, (
            sum(c * q**i for i, c in enumerate(row)) for row in rows
        )).tobytes()
        return int.from_bytes(data.ljust(_KEY_BYTES, b"\0"), sys.byteorder)

    def rows(self, key: int) -> tuple:
        """The rows of the matrix with this closure key."""
        data = array(self.row_code, key.to_bytes(_KEY_BYTES, sys.byteorder))
        return tuple(_digits(v, self.field.q, self.dim) for v in data[: self.dim])

    @cached_property
    def classes(self) -> list[tuple[int, int]]:
        """The conjugacy classes, each as (key, size) with key its first
        element in breadth-first order, in the order of those keys (the
        identity's class first).  Each class is struck from the first place
        still to do by conjugating with the generators until nothing new
        appears.  The sweep runs on places, with a done flag per place, and
        each conjugation is a lookup in a table of _conjugation_places,
        built for the sweep and dropped when it ends."""
        conjugations = [
            _conjugation_places(self, j) for j in range(len(self.generators))
        ]
        done = bytearray(len(self))
        out = []
        for rep, key in enumerate(self.index):
            if done[rep]:
                continue
            done[rep] = 1
            # the loop also visits the conjugates appended to the class
            cls = [rep]
            for x in cls:
                for conj in conjugations:
                    y = conj[x]
                    if not done[y]:
                        done[y] = 1
                        cls.append(y)
            out.append((key, len(cls)))
        return out


def _matrix_ring(generators) -> tuple[list, Field, int]:
    gens = list(generators)
    if not gens:
        raise DomainError("no generators")
    fld, dim = gens[0].field, gens[0].dim
    if any(g.field is not fld or g.dim != dim for g in gens):
        raise DomainError("matrices live in different matrix rings")
    return gens, fld, dim


def _row_tables(group: ClosedGroup) -> list:
    """Per generator g, the table v -> index of v g over the row indices v
    of GF(q)^dim: for byte rows a 256-byte bytes.translate table, else an
    array.  A key with one row v is v itself, so the engine key of each
    one-row matrix maps to v, and each entry is one engine product."""
    eng, code = group.engine, group.row_code
    one_rows = {
        eng.encode(group.rows(v)): v for v in range(group.field.q**group.dim)
    }
    out = []
    for g in group.generators:
        tabs = eng.tables(eng.encode(g.rows))
        table = array(code, (one_rows[eng.mul(v, tabs)] for v in one_rows))
        out.append(table.tobytes().ljust(256, b"\0") if code == "B" else table)
    return out


def close_group(generators, cap: int = DEFAULT_CAP) -> ClosedGroup:
    """Breadth-first closure of the generated group, one level at a time:
    the level's products with a generator are one bytes.translate of its
    keys through the generator's _row_tables entry for byte rows, else one
    lookup per row.  Each product's place is written to the
    right-multiplication table, and for each new element the place and
    generator it came from.

    Raises UnsupportedError when a key would not fit in eight bytes (past
    256 row vectors in a dimension above 4, or past 65536), and
    ResourceError as soon as more than `cap` elements are seen.
    """
    gens, fld, dim = _matrix_ring(generators)
    vectors = fld.q**dim
    if vectors > 1 << 16 or (vectors > 256 and 2 * dim > _KEY_BYTES):
        raise UnsupportedError(
            f"closure keys hold {_KEY_BYTES} bytes, a row index 1 byte up to "
            f"256 row vectors and 2 up to 65536; {fld}^{dim} has {vectors}"
        )
    for g in gens:
        g.inverse()  # raises on singular input
    if cap < 1:
        raise DomainError(f"cap must be positive, got {cap}")
    eng = _engine(fld, dim)
    right = [array("i") for _ in gens]
    group = ClosedGroup(
        fld, dim, eng, gens, {}, right, array("i", [-1]), array("i", [-1])
    )
    index, parent, via, code = group.index, group.parent, group.via, group.row_code
    translations = _row_tables(group)
    records = [row.append for row in right]
    level = array("Q", [group.key(eng.decode(eng.identity))])
    index[level[0]] = 0
    start = 0
    while level:
        data = level.tobytes()
        if code == "B":
            columns = [array("Q", data.translate(t)) for t in translations]
        else:
            rows = array(code, data)
            columns = [
                array("Q", array(code, map(t.__getitem__, rows)).tobytes())
                for t in translations
            ]
        level = array("Q")
        for i, keys in enumerate(zip(*columns), start):
            for j, k in enumerate(keys):
                place = index.get(k)
                if place is None:
                    place = len(index)
                    if place >= cap:
                        raise ResourceError(
                            f"closure exceeded the cap of {cap} elements"
                        )
                    index[k] = place
                    level.append(k)
                    parent.append(i)
                    via.append(j)
                records[j](place)
        start += len(columns[0])
    return group


def centre_of(group: ClosedGroup) -> list[MatrixGF]:
    """The centre of a closed group, computed (never assumed) as the
    elements alone in their conjugacy class, in breadth-first order, so
    the identity first."""
    f = group.field
    return [MatrixGF(f, group.rows(key)) for key, size in group.classes if size == 1]


def _validated_centre(eng, generators, centre) -> tuple[set, list]:
    """Key set for a centre argument, after checking on engine keys that it
    lies in the generators' matrix ring, contains the identity, is central
    for the generators, and is closed under product; and the tables of its
    elements other than the identity, for _central_order's translates."""
    if centre is None:
        return {eng.identity}, []
    mats = list(centre)
    if not mats:
        raise DomainError("centre argument is empty")
    _matrix_ring([*generators, *mats])
    keys = {eng.encode(z.rows) for z in mats}
    if eng.identity not in keys:
        raise DomainError("centre must contain the identity")
    tabs = {z: eng.tables(z) for z in keys}
    for g in generators:
        key = eng.encode(g.rows)
        g_tabs = eng.tables(key)
        if any(eng.mul(z, g_tabs) != eng.mul(key, t) for z, t in tabs.items()):
            raise DomainError("centre argument contains a non-central element")
    if any(eng.mul(a, t) not in keys for a in keys for t in tabs.values()):
        raise DomainError("centre argument is not closed under product")
    return keys, [t for z, t in tabs.items() if z != eng.identity]


# Baby steps in _central_order: about this many products plus n / this many
# per order n, against n for the whole power walk.
_BABY_STEPS = 16


def _central_order(eng, key: int, centre_keys, shifts, bound: int) -> int:
    """The order n of g = `key` modulo the centre, by Shanks's baby steps
    and giant steps.  The baby steps walk g, g^2, ..., g^B and stop at the
    first power in `centre_keys`.  If none is central, n > B, so each
    window ((i-1)B, iB] holds at most one multiple of n: the giant steps
    g^(iB), i = 2, 3, ..., are looked up among the central translates
    z g^j, 0 <= j < B, read off `shifts`, the tables of the central
    elements other than the identity; the first hit gives n = iB - j.
    Raises ResourceError exactly when n > bound."""
    if key in centre_keys:
        return 1
    baby = min(bound, _BABY_STEPS)
    mul, tabs, acc, powers = eng.mul, eng.tables(key), key, []
    for n in range(2, baby + 1):
        powers.append(acc)
        acc = mul(acc, tabs)
        if acc in centre_keys:
            return n
    if bound <= baby:
        raise ResourceError(f"element order exceeds {bound}")
    translates = dict.fromkeys(centre_keys, 0)
    for j, power in enumerate(powers, 1):
        translates[power] = j
        translates.update((mul(power, tabs), j) for tabs in shifts)
    tabs = eng.tables(acc)  # of g^B, the giant step
    for i in range(2, -(-bound // baby) + 1):
        acc = mul(acc, tabs)
        # a hit past the bound can only come at the last giant step
        if (j := translates.get(acc)) is not None and i * baby - j <= bound:
            return i * baby - j
    raise ResourceError(f"element order exceeds {bound}")


def _conjugation_places(group: ClosedGroup, j: int) -> array:
    """Where conjugation by s = generator j takes each place: entry i is the
    place of s^-1 x_i s, read off the closure's tables with no product.
    Left multiplication by s^-1 is filled in breadth-first order: it takes
    the identity to the place of s^-1, and x_i to right[via[i]] of where it
    took x_parent[i], since s^-1 x_i = (s^-1 x_parent[i]) g_via[i].  Then
    s^-1 x_i s is at right[j] of that place."""
    right = group.right
    inverse = group.index[group.key(group.generators[j].inverse().rows)]
    left = array("i", [inverse])
    append = left.append
    for par, g in zip(islice(group.parent, 1, None), islice(group.via, 1, None)):
        append(right[g][left[par]])
    return array("i", map(right[j].__getitem__, left))


def element_orders(group: ClosedGroup, centre=None) -> SpectrumGens:
    """The set of element orders of group/centre, as a reduced generator
    list.  With centre None this is the plain order spectrum.

    The order modulo the centre is a class function, so one representative
    per conjugacy class is asked: _central_order gives the order of each
    class's first key.  A central element is a class of its own, so
    k(G) - |Z| orders cover the group, and those orders make every engine
    product here."""
    eng = group.engine
    centre_keys, shifts = _validated_centre(eng, group.generators, centre)
    if any(group.key(eng.decode(z)) not in group.index for z in centre_keys):
        raise DomainError("centre argument is not inside the group")
    reps = (eng.encode(group.rows(key)) for key, _ in group.classes)
    seen = {
        _central_order(eng, key, centre_keys, shifts, len(group))
        for key in reps
        if key not in centre_keys
    }
    if not seen:
        seen.add(1)
    return spectra.reduce_gens(seen, label=f"enumerated[{len(group)}]")


# ---------------------------------------------------------------------------
# standard generators


def _form(family: str, fld: Field, dim: int) -> MatrixGF:
    """Gram matrix F of the form the family's group preserves: for Sp the
    alternating form (antidiagonal, +1 above the middle, -1 below), for SU
    the hermitian antidiagonal of ones, for GOplus the polar form of the
    quadratic form Q(x) = x1 x2 + x3 x4 + ... ."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        if family == "GOplus":
            rows[i][i ^ 1] = 1
        else:
            rows[i][dim - 1 - i] = (
                1 if family == "SU" or i < dim // 2 else fld.neg(1)
            )
    return MatrixGF(fld, rows)


def _transvection(fld: Field, dim: int, v, lam: int) -> MatrixGF:
    """x -> x + lam * B(x, v) * v for the alternating form B; preserves the
    form for every v and lam."""
    # J is antidiagonal, so (J v)_i is J[i][dim - 1 - i] * v[dim - 1 - i]
    j = _form("Sp", fld, dim).rows
    jv = [fld.mul(j[i][dim - 1 - i], v[dim - 1 - i]) for i in range(dim)]
    rows = [
        tuple(
            fld.add(1 if i == k else 0, fld.mul(lam, fld.mul(v[i], jv[k])))
            for k in range(dim)
        )
        for i in range(dim)
    ]
    return MatrixGF(fld, rows)


def in_group(family: str, mat: MatrixGF) -> bool:
    """Whether g = mat lies in the family's group: g F sigma(g)^T = F for
    the Gram matrix F of _form, with sigma the entrywise conjugation for SU
    and the identity otherwise; det g = 1 for SU; and for GOplus, with F
    the polar form of Q(x) = sum x_2i x_2i+1, Q(e_i g) = 0 for every row
    e_i g of g, since then Q(x g) = Q(x).  DomainError in odd dimension
    for Sp and GOplus, whose forms need an even one."""
    fld, dim = mat.field, mat.dim
    if family != "SU" and dim % 2:
        raise DomainError(f"the {family} form needs an even dimension, got {dim}")
    f = _form(family, fld, dim)
    twin = mat.conj_entries() if family == "SU" else mat
    if mat * f * twin.transpose() != f:
        return False
    if family == "GOplus":
        return not any(
            reduce(fld.add, map(fld.mul, row[::2], row[1::2])) for row in mat.rows
        )
    return family != "SU" or _det(mat) == 1


def _det(mat: MatrixGF) -> int:
    """At full rank the reduction ends at the permutation matrix taking row
    i to its lead's column, having added multiples of rows and divided by
    the leads: det is that permutation's sign times their product."""
    f = mat.field
    pivots, leads = _reduced_echelon(f, mat.rows)
    if len(pivots) < mat.dim:
        return 0
    cols = list(pivots)
    odd = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :]) % 2
    return f.neg(leads) if odd else leads


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
    return [
        _transvection(fld, dim, v, lam) for v in vectors for lam in _gf_basis(fld)
    ]


def _su4_generators(fld: Field) -> list[MatrixGF]:
    """Generators of SU_4(q) inside SL_4(q^2), q even: two unitary
    transvections, two paired root elements, the form matrix (an element of
    the group) and a torus element."""
    one = 1
    s = fld.gen
    sq = fld.conj(s)
    neg_sq = fld.neg(sq)

    e = [[one if i == j else 0 for j in range(4)] for i in range(4)]

    def with_entry(extra):
        rows = [list(r) for r in e]
        for (i, j), val in extra.items():
            rows[i][j] = val
        return MatrixGF(fld, rows)

    x_t = with_entry({(0, 3): one})
    x_s = with_entry({(0, 3): _subfield_code(fld)})
    y_s = with_entry({(0, 1): s, (2, 3): neg_sq})
    z_s = with_entry({(0, 2): s, (1, 3): neg_sq})
    j = _form("SU", fld, 4)
    a = fld.gen
    d_a = MatrixGF(fld, [
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


# Each supported group -> two words in its standard generators, as index
# tuples, whose products generate it (None: too large to enumerate).
# Closing two elements costs two multiplications per group element instead
# of one per standard generator.  Found by a seeded random search;
# enumerate_group checks every closure against _matrix_group_order.
_PAIR_WORDS = {
    ("Sp", 4, 2): ((6, 1, 1, 4), (5, 2, 0)),
    ("Sp", 4, 3): ((0, 6, 5, 0), (3,)),
    ("Sp", 4, 4): ((10, 5, 13, 9), (3, 8, 11)),
    ("Sp", 6, 2): ((5, 4, 8, 3), (6, 7, 8, 1)),
    ("Sp", 6, 3): None,
    ("SU", 4, 2): ((2, 5, 1, 4), (4,)),
    ("SU", 4, 4): None,
    ("SU", 4, 8): None,
    ("SU", 4, 16): None,
    ("SU", 4, 32): None,
    ("GOplus", 4, 2): ((0,), (1,)),
}

SUPPORTED_GENERATORS = tuple(_PAIR_WORDS)


def _group_field(family: str, dim: int, q: int) -> Field:
    if (family, dim, q) not in _PAIR_WORDS:
        raise DomainError(
            f"no standard generators for ({family}, {dim}, {q}); "
            f"supported: {SUPPORTED_GENERATORS}"
        )
    return field_of_order(q * q if family == "SU" else q)


def central_scalars(family: str, dim: int, q: int) -> list[MatrixGF]:
    """The scalar matrices lying in the named matrix group: +-I for Sp,
    the scalars z with z^(q+1) = z^dim = 1 for SU, only I for GO+(4, 2).
    Quotienting by them turns matrix orders into orders in the simple
    (or for GO+ the plain) quotient."""
    fld = _group_field(family, dim, q)
    if family == "SU":
        codes = [
            z
            for z in range(1, fld.q)
            if fld.pow(z, q + 1) == 1 and fld.pow(z, dim) == 1
        ]
    else:
        codes = [1] if family != "Sp" or fld.p == 2 else [1, fld.neg(1)]
    out = []
    for z in codes:
        rows = [[z if i == j else 0 for j in range(dim)] for i in range(dim)]
        out.append(MatrixGF(fld, rows))
    return out


def standard_generators(family: str, dim: int, q: int) -> list[MatrixGF]:
    """Matrices generating the named group: Sp(dim, q), SU(4, q) (as
    matrices over GF(q^2)), or the full orthogonal group GO+(4, 2)."""
    fld = _group_field(family, dim, q)
    if family == "Sp":
        gens = _sp_generators(fld, dim)
    elif family == "SU":
        gens = _su4_generators(fld)
    else:
        gens = [MatrixGF(fld, rows) for rows in _GOPLUS_4_2_ROWS]
    for g in gens:
        if not in_group(family, g):
            raise AssertionError(f"internal: generator outside {family}{dim}")
    return gens


def _matrix_group_order(family: str, dim: int, q: int) -> int:
    """|Sp(dim, q)| = q^(n^2) prod_{i<=n} (q^(2i) - 1) with dim = 2n,
    |SU(4, q)| = q^6 (q^2 - 1)(q^3 + 1)(q^4 - 1), and |GO+(4, 2)| = 72."""
    if family == "Sp":
        n = dim // 2
        return q ** (n * n) * math.prod(q ** (2 * i) - 1 for i in range(1, n + 1))
    if family == "SU":
        return q**6 * (q**2 - 1) * (q**3 + 1) * (q**4 - 1)
    return 72


def _generating_pair(family: str, dim: int, q: int) -> list[MatrixGF]:
    """The two word products of _PAIR_WORDS for the named group, which lie
    in it by construction.  Raises ResourceError for the supported groups
    too large to enumerate, which have no pair."""
    gens = standard_generators(family, dim, q)
    words = _PAIR_WORDS[family, dim, q]
    if words is None:
        raise ResourceError(
            f"({family}, {dim}, {q}) has "
            f"{_matrix_group_order(family, dim, q)} elements, too many to "
            f"enumerate; enumerable: "
            f"{tuple(group for group, pair in _PAIR_WORDS.items() if pair)}"
        )
    return [reduce(operator.mul, (gens[i] for i in word)) for word in words]


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
    if not in_group("SU", b):
        raise AssertionError("internal: B(t) outside SU4")
    square = b * b.conj_entries()
    eng = _engine(fld, 4)
    order = 2 * _central_order(
        eng, eng.encode(square.rows), {eng.identity}, [], _ORDER_BOUND
    )
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
    optional centre, by _central_order), as a sorted tuple.  Deterministic
    for a fixed seed."""
    gens, fld, dim = _matrix_ring(generators)
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    eng = _engine(fld, dim)
    centre_keys, shifts = _validated_centre(eng, gens, centre)
    gen_tabs = [eng.tables(eng.encode(g.rows)) for g in gens]
    rng = random.Random(seed)
    seen = set()
    for _ in range(count):
        length = rng.randint(2, 24)
        key = eng.identity
        for _ in range(length):
            key = eng.mul(key, rng.choice(gen_tabs))
        seen.add(_central_order(eng, key, centre_keys, shifts, _ORDER_BOUND))
    return tuple(sorted(seen))


# Part of every cache file name: a new value makes every entry written under
# an older format or generator encoding a miss.
_CACHE_FORMAT = "enumerate_group/3"


def _fits_order(order: int, gens) -> bool:
    """Whether gens can be the whole spectrum of a group of this order:
    each divides the order, and each prime of the order divides one of them
    (Cauchy's theorem).  The primes are checked without factoring, by
    stripping common factors with lcm(gens) until none is left."""
    if any(order % g for g in gens):
        return False
    lcm = math.lcm(*gens)
    while (common := math.gcd(order, lcm)) > 1:
        order //= common
    return order == 1


def enumerate_group(
    family: str,
    dim: int,
    q: int,
    cap: int = DEFAULT_CAP,
    cache_dir: str | None = None,
):
    """Close the group's generating pair, compute the centre, and return
    (group order, centre size, coset-order spectrum).  The closure must
    reach the order given by the product formula, which proves that the
    pair generates the group; otherwise AssertionError.  Results are
    cached on disk keyed by a format tag and the pair when a cache
    directory is available (argument or ORDSPEC_CACHE_DIR).  Entries are
    written atomically; a hit reads only order, centre size and generators.
    An entry that does not parse, whose order is not the formula's, or
    whose order, centre size and spectrum do not fit together (a generator
    not dividing |G|/|Z|, or a prime of |G|/|Z| dividing no generator), is
    a miss, recomputed and overwritten; so is one that cannot be read (say,
    a directory in its place).  A failed write raises UsageError naming the
    path."""
    import hashlib

    gens = _generating_pair(family, dim, q)
    want_order = _matrix_group_order(family, dim, q)
    gen_hash = hashlib.sha256(
        f"{_CACHE_FORMAT}:{[g.rows for g in gens]!r}".encode()
    ).hexdigest()[:12]
    cache_dir = cache_dir or os.environ.get("ORDSPEC_CACHE_DIR")
    cache_path = None
    if cache_dir:
        cache_path = os.path.join(
            cache_dir, f"{family}{dim}q{q}-{gen_hash}.json"
        )
        try:
            with open(cache_path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            order, centre_size = int(obj["group_order"]), int(obj["centre_size"])
            stored = tuple(int(g) for g in obj["spectrum"]["gens"])
            spec = SpectrumGens(f"enumerated[{order}]", FULL, stored)
            if (
                order == want_order
                and centre_size >= 1
                and order % centre_size == 0
                and _fits_order(order // centre_size, spec.gens)
            ):
                return order, centre_size, spec
        except (OSError, KeyError, TypeError, ValueError, DomainError):
            pass  # absent or unreadable: recomputed and written below
    group = close_group(gens, cap=cap)
    if len(group) != want_order:
        raise AssertionError(
            f"internal: the pair for ({family}, {dim}, {q}) closes to "
            f"{len(group)} elements, not {want_order}"
        )
    centre = centre_of(group)
    spec = element_orders(group, centre)
    if cache_path:
        import tempfile

        obj = {
            "group_order": str(len(group)),
            "centre_size": len(centre),
            "spectrum": json.loads(spectra.serialize(spec)),
        }
        try:
            os.makedirs(cache_dir, exist_ok=True)
            # write a temporary file beside the entry and rename it into
            # place, so an interrupted write never leaves a truncated entry
            fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
                os.replace(tmp_path, cache_path)
            finally:
                if os.path.exists(tmp_path):
                    os.remove(tmp_path)
        except OSError as exc:
            raise UsageError(f"cannot write cache entry {cache_path}: {exc}") from exc
    return len(group), len(centre), spec
