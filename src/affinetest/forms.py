"""Affine constraints and the algebra of linear forms.

An affine constraint in normal form is a tuple of linear forms
a_1, ..., a_m on variables X_1, ..., X_l with a_1 = X_1 and every a_i
carrying coefficient 1 on X_1.  An induced constraint pairs the forms with a
forbidden label pattern sigma in [R]^m.  This module also provides the
Cauchy-Schwarz complexity of a form system, tensor powers and the
(d_1, ..., d_C)-dimension, changes of view, the reduction of a constraint to
at most m variables by one row reduction of its forms' X_2, ..., X_l
coefficients, the consistency predicate for tuples of cell images, the
check that a constraint shares the field of a table or factor, and the scans
of tuple grids with their budget charge and the decoding of a flat grid
index into its tuple.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gflinalg
from .field import (
    ENUM_BUDGET,
    MAX_DOMAIN_BITS,
    BudgetError,
    FieldParams,
    canonical_indices,
    digit_index,
    index_digits,
    is_prime,
)

MAX_CS_FORMS = 8
MAX_TENSOR_ENTRIES = 1 << 22
GRID_CHUNK = 1 << 22  # tuple grids above this size are scanned one x_1 slice at a time


@dataclass(frozen=True)
class LinearForm:
    """A linear form sum_i coeffs[i+1] * X_{i+1} over F_p."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))

    @property
    def ell(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        terms = [
            ("X%d" % (i + 1)) if c == 1 else ("%d*X%d" % (c, i + 1))
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def eval_form(form: LinearForm, points: Sequence) -> tuple[int, ...]:
    """Evaluate a_j(x_1, ..., x_l) componentwise mod p for points in F_p^n."""
    if len(points) != form.ell:
        raise ValueError(f"form takes {form.ell} points, got {len(points)}")
    p = form.p
    n = len(points[0])
    out = [0] * n
    for c, x in zip(form.coeffs, points):
        if len(x) != n:
            raise ValueError("point dimension mismatch")
        if c:
            for t in range(n):
                out[t] += c * x[t]
    return tuple(v % p for v in out)


@dataclass(frozen=True)
class AffineConstraint:
    """Normal-form affine constraint: a_1 = X_1 and unit X_1 coefficient throughout."""

    p: int
    ell: int
    forms: tuple[LinearForm, ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("constraint needs at least one form")
        for f in self.forms:
            if f.p != self.p or f.ell != self.ell:
                raise ValueError("forms must share p and variable count")
            if f.coeffs[0] != 1:
                raise ValueError(f"form {f} lacks unit X_1 coefficient")
        first = self.forms[0].coeffs
        if any(first[1:]) or first[0] != 1:
            raise ValueError("first form must be exactly X_1")

    @classmethod
    def from_rows(cls, p: int, rows: Iterable[Sequence[int]]) -> "AffineConstraint":
        forms = tuple(LinearForm(p, tuple(r)) for r in rows)
        return cls(p, forms[0].ell, forms)

    @property
    def size(self) -> int:
        return len(self.forms)


def check_field(constraint: AffineConstraint, params: FieldParams, what: str) -> None:
    """A constraint over F_q applies only to `what` (a table, a factor) over
    F_q^n; otherwise ValueError."""
    if constraint.p != params.p:
        over = f"F_{params.p}^{params.n}"
        raise ValueError(f"constraint over F_{constraint.p} does not apply to {what} over {over}")


@dataclass(frozen=True)
class InducedConstraint:
    """An affine constraint with a forbidden label pattern sigma in [R]^m."""

    constraint: AffineConstraint
    sigma: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(int(s) for s in self.sigma))
        if len(self.sigma) != self.constraint.size:
            raise ValueError("sigma length must match the number of forms")
        if any(s < 1 for s in self.sigma):
            raise ValueError("labels are 1-based")


@dataclass(frozen=True)
class ConstraintCollection:
    """A finite collection of induced constraints (truncation of a family)."""

    members: tuple[InducedConstraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def max_ell(self) -> int:
        return max((ic.constraint.ell for ic in self.members), default=1)


@dataclass(frozen=True)
class CellImage:
    """Cell images b_1, ..., b_m, one element of F_p^C per constraint form."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cells = tuple(tuple(int(v) for v in b) for b in self.cells)
        object.__setattr__(self, "cells", cells)
        widths = {len(b) for b in cells}
        if len(widths) > 1:
            raise ValueError("all cell images must share the same width C")

    def indices(self, m: int, space: FieldParams) -> list[int]:
        """Canonical indices in `space` = F_p^C of the images, which must be
        m points of C digits in [0, p); ValueError otherwise."""
        if len(self.cells) != m:
            raise ValueError(f"need {m} cell images, one per form, got {len(self.cells)}")
        return [digit_index(b, space, "cell image") for b in self.cells]

    def row(self, i: int) -> tuple[int, ...]:
        """The row (b_{i,1}, ..., b_{i,m}) across all forms."""
        return tuple(b[i] for b in self.cells)


# --- Cauchy-Schwarz complexity ---------------------------------------------


def _partition_exists(target: np.ndarray, others: list[np.ndarray], parts: int, p: int) -> bool:
    """Can `others` be split into <= parts classes none of whose spans hit target?"""

    classes: list[list[np.ndarray]] = [[] for _ in range(parts)]

    def rec(i: int) -> bool:
        if i == len(others):
            return True
        used = 0
        for c in range(parts):
            if not classes[c]:
                if used:
                    break  # empty classes are interchangeable
                used = 1
            classes[c].append(others[i])
            if not gflinalg.in_rowspan(classes[c], target, p):
                if rec(i + 1):
                    classes[c].pop()
                    return True
            classes[c].pop()
        return False

    return rec(0)


def cs_complexity(forms: Sequence[LinearForm]) -> int | None:
    """Minimal s such that each form can be separated from the rest by an
    (s+1)-part partition avoiding its span; None if no finite s exists.

    Exhaustive backtracking over set partitions with span checks by Gaussian
    elimination.  Capped at MAX_CS_FORMS forms (Bell-number growth); beyond the
    cap a BudgetError reports the untried lower bound.
    """
    m = len(forms)
    if m < 1:
        raise ValueError("need at least one form")
    p = forms[0].p
    if any(f.p != p or f.ell != forms[0].ell for f in forms):
        raise ValueError("forms must share p and variable count")
    if m > MAX_CS_FORMS:
        raise BudgetError(f"cs_complexity capped at {MAX_CS_FORMS} forms; result unknown >= 0")
    vecs = [np.array(f.coeffs, dtype=np.int64) for f in forms]
    # s = m-2 always suffices via singleton classes unless some pair is
    # proportional, in which case no s works.
    for s in range(max(m - 1, 1)):
        ok = True
        for i in range(m):
            others = [v for j, v in enumerate(vecs) if j != i]
            if not _partition_exists(vecs[i], others, s + 1, p):
                ok = False
                break
        if ok:
            return s
    return None


# --- tensor powers and dimension -------------------------------------------


def tensor_power(form: LinearForm, d: int) -> np.ndarray:
    """The d-th tensor power of a form as a vector in F_p^(l^d).

    Entry at multi-index (i_1, ..., i_d) is prod_j coeffs[i_j], stored at the
    little-endian index sum_j i_j * l^(j-1), matching canonical_index.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    ell = form.ell
    if ell**d > MAX_TENSOR_ENTRIES:
        raise BudgetError(f"tensor power size {ell}^{d} exceeds budget")
    vec = np.array(form.coeffs, dtype=np.int64)
    out = np.array([1], dtype=np.int64)
    for _ in range(d):
        out = np.outer(vec, out).ravel() % form.p
    return out


def dimension_d(forms: Sequence[LinearForm], d: int) -> int:
    """Rank over F_p of the d-th tensor powers of the forms."""
    p = forms[0].p
    mat = np.vstack([tensor_power(f, d) for f in forms])
    return gflinalg.rank(mat, p)


def mixed_dimension(forms: Sequence[LinearForm], degrees: Sequence[int]) -> int:
    """The (d_1, ..., d_C)-dimension: sum_i dimension_d(forms, d_i)."""
    if any(d < 1 for d in degrees):
        raise ValueError("all degrees must be >= 1")
    return sum(dimension_d(forms, d) for d in degrees)


# --- change of view and conciseness ----------------------------------------


def change_of_view(forms, M) -> list[LinearForm]:
    """Forms a'(v) = a(Mv) for an invertible matrix M over F_p.

    Accepts an AffineConstraint or a sequence of LinearForm; returns the raw
    transformed form list (not necessarily in normal form).
    """
    if isinstance(forms, AffineConstraint):
        forms = forms.forms
    p = forms[0].p
    M = gflinalg.as_matrix(M, p)
    if not gflinalg.is_invertible(M, p):
        raise ValueError("change of view requires an invertible matrix")
    out = []
    for f in forms:
        coeffs = (np.array(f.coeffs, dtype=np.int64) @ M) % p
        out.append(LinearForm(p, tuple(int(c) for c in coeffs)))
    return out


def make_concise(ic: InducedConstraint) -> InducedConstraint:
    """Equivalent constraint on at most m variables, in normal form.

    If l <= m the input is returned unchanged.  Otherwise each form is
    X_1 + t_j . (X_2, ..., X_l); the tails t_j have rank at most m - 1
    (t_1 = 0), so the reduced echelon form of the tail matrix has at least
    l - m non-pivot columns, and the first l - m of them are dropped: the
    result is [1, t_j[kept]] per form, with the same sigma.  Every non-pivot
    column is a combination of the pivot columns before it, all of which
    are kept, so a dropped variable's contribution can be moved onto kept
    ones: the forms take the same tuples of values, and an f is free of the
    result exactly when it is free of the input.
    """
    a = ic.constraint
    ell, m = a.ell, a.size
    if ell <= m:
        return ic
    tails = np.array([f.coeffs[1:] for f in a.forms], dtype=np.int64)
    _, pivots = gflinalg.rref(tails, a.p)
    dropped = [c for c in range(ell - 1) if c not in pivots][: ell - m]
    kept = [c for c in range(ell - 1) if c not in dropped]
    rows = [(1,) + tuple(f.coeffs[1 + c] for c in kept) for f in a.forms]
    return InducedConstraint(AffineConstraint.from_rows(a.p, rows), ic.sigma)


def make_concise_collection(col: ConstraintCollection) -> ConstraintCollection:
    return ConstraintCollection(tuple(make_concise(ic) for ic in col.members))


# --- consistency ------------------------------------------------------------

_kernel_cache: dict[tuple, np.ndarray] = {}


def tensor_row_space(constraint: AffineConstraint, d: int) -> np.ndarray:
    """Echelon basis of the row space of the matrix whose columns are the
    d-th tensor powers a_j^(x d); cached per (constraint, d)."""
    key = (constraint.p, tuple(f.coeffs for f in constraint.forms), d)
    cached = _kernel_cache.get(key)
    if cached is not None:
        return cached
    powers = np.vstack([tensor_power(f, d) for f in constraint.forms])
    ech, _ = gflinalg.rref(powers.T, constraint.p)
    ech.setflags(write=False)
    _kernel_cache[key] = ech
    return ech


def consistency_check(
    constraint: AffineConstraint, degrees: Sequence[int], images: CellImage
) -> bool:
    """True iff the cell images are consistent with the constraint and degrees.

    Row by row: (b_{i,1}, ..., b_{i,m}) must lie in the row space of the
    matrix with columns a_j^(x d_i), equivalently be orthogonal to its kernel.
    The per-row split of the joint condition is valid because the lambda rows
    are unconstrained across i.
    """
    p = constraint.p
    images.indices(constraint.size, FieldParams(p, len(degrees)))
    for i, d in enumerate(degrees):
        basis = tensor_row_space(constraint, d)
        if not gflinalg.in_rowspan(basis, np.array(images.row(i), dtype=np.int64), p):
            return False
    return True


# --- constraint file format --------------------------------------------------
#
# One constraint block: header "p l m R", then m lines of l coefficients,
# then one line with the m sigma labels.  Collections separate blocks with a
# single blank line.


def dump_induced_constraint(ic: InducedConstraint, range_size: int) -> str:
    a = ic.constraint
    lines = [f"{a.p} {a.ell} {a.size} {range_size}"]
    for f in a.forms:
        lines.append(" ".join(str(c) for c in f.coeffs))
    lines.append(" ".join(str(s) for s in ic.sigma))
    return "\n".join(lines) + "\n"


def _parse_head(lines: list[str]) -> tuple[AffineConstraint, int]:
    """The constraint and range size R of one block, given as its lines; both
    depend only on the lines before the sigma line and on how many lines
    there are, one more than those."""
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"constraint header needs 4 integers 'p l m R', got {lines[0]!r}")
    p, ell, m, r = (int(t) for t in head)
    if p >= 2**MAX_DOMAIN_BITS or not is_prime(p) or ell < 1 or m < 1 or r < 1:
        raise ValueError(
            f"constraint header {lines[0]!r} needs a prime p < 2^{MAX_DOMAIN_BITS} and l, m, R >= 1"
        )
    if len(lines) != m + 2:
        raise ValueError(f"constraint block has {len(lines)} lines, its header declares {m + 2}")
    rows = [[int(t) for t in ln.split()] for ln in lines[1 : m + 1]]
    if any(len(row) != ell for row in rows):
        raise ValueError(f"every form line needs l = {ell} coefficients")
    return AffineConstraint.from_rows(p, rows), r


def dump_collection(col: ConstraintCollection, range_size: int) -> str:
    return "\n".join(dump_induced_constraint(ic, range_size) for ic in col.members)


def parse_collection(text: str) -> tuple[ConstraintCollection, int]:
    """A collection file's members and its range size R (1 when empty); all
    blocks must agree on p and R.  Each distinct block head (the lines before
    the sigma line) is parsed and validated once, so equal heads share one
    AffineConstraint, and every block's sigma line is read."""
    heads: dict[tuple[str, ...], tuple[AffineConstraint, int]] = {}
    members = []
    for block in text.strip().split("\n\n"):
        if not block.strip():
            continue
        lines = block.strip().split("\n")
        key = tuple(lines[:-1])
        if key not in heads:
            heads[key] = _parse_head(lines)
        members.append(InducedConstraint(heads[key][0], tuple(int(t) for t in lines[-1].split())))
    fields = sorted({(a.p, r) for a, r in heads.values()})
    if len(fields) > 1:
        raise ValueError(f"collection blocks disagree on (p, R): {fields}")
    return ConstraintCollection(tuple(members)), fields[0][1] if fields else 1


def _sum_rows(left: np.ndarray, params: FieldParams) -> np.ndarray:
    """(len(left), p^n) table of index(x + y) for the points x with canonical
    index in `left` and every y in canonical order.

    Built one digit of y at a time: with y's digits below k already placed,
    setting digit k of y to e moves digit k of x from d to (d + e) mod p, so
    each step is one broadcast add and the steps' sizes grow geometrically.
    """
    p = params.p
    digits = index_digits(left, params)
    e = np.arange(p, dtype=np.int64)
    rows = left[:, None]
    for k in range(params.n):
        d = digits[:, k, None]
        shift = ((d + e) % p - d) * p**k
        rows = (shift[:, :, None] + rows[:, None, :]).reshape(len(left), -1)
    return rows


def _scaled_indices(c: int, x, params: FieldParams) -> np.ndarray:
    """index(c * x) for the points x with canonical indices `x`."""
    if c == 1:
        return x
    return canonical_indices(c * index_digits(x, params), params)


def grid_point_indices(forms: Sequence[LinearForm], params: FieldParams) -> list[np.ndarray]:
    """Per-form canonical point indices of a_j(x_1, ..., x_l) over the tuple
    grid (F_p^n)^l, x_1 on the first axis: grid_slices' views of the
    identity table over the whole grid.  The forms share l but may carry any
    coefficient on x_1.  Each view broadcasts to (p^n,)*l and has length 1
    on every axis its form does not read, so a caller that gathers through
    it reads only the axes the form uses.
    """
    return list(_FormViews(None, forms, params, params.size ** forms[0].ell).slice(None))


def _row_table(values: np.ndarray, params: FieldParams) -> np.ndarray:
    """(p^n, p^n) table T[i, y] = values[index(x_i + y)], in the dtype of
    `values` and with no index array.

    Built one digit of x_i at a time: with its digits below k placed, row
    i + e * p^k is row i with digit k of the column index moved by e mod p,
    i.e. one rotation of a length-p axis, so each pass is 2p - 1 block
    copies and the passes' sizes grow geometrically.
    """
    p = params.p
    rows = values[None, :]
    for k in range(params.n):
        src = rows.reshape(len(rows), -1, p, p**k)
        out = np.empty((p,) + src.shape, dtype=values.dtype)
        out[0] = src
        for e in range(1, p):
            out[e, :, :, : p - e] = src[:, :, e:]
            out[e, :, :, p - e :] = src[:, :, :e]
        rows = out.reshape(-1, params.size)
    return rows


class _FormViews:
    """Each form's table read as an array that broadcasts over the tuple
    grid, without a per-tuple index; see grid_slices.  The scaled index
    permutations, the row tables and the views of forms free of x_1 do not
    depend on the x_1 slice and are built once.  Tables None read the
    identity table for every form, the same array the index steps read, so
    its row tables are built once."""

    def __init__(self, tables, forms, params: FieldParams, span: int):
        self.forms, self.params = forms, params
        self.every = np.arange(params.size, dtype=np.int64)
        self.tables = [self.every] * len(forms) if tables is None else tables
        self.use_tables = params.size**2 <= span  # no row table beyond the grid or slice
        self._scaled: dict[int, np.ndarray] = {}
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._free_of_x1 = {j: self.view(j, None) for j, f in enumerate(forms) if not f.coeffs[0]}

    def scaled(self, c: int) -> np.ndarray:
        if c not in self._scaled:
            self._scaled[c] = _scaled_indices(c, self.every, self.params)
        return self._scaled[c]

    def shifted(self, values: np.ndarray, prefix: np.ndarray, c: int) -> np.ndarray:
        """values[index(x + c * y)] for the points x with indices `prefix`
        and every y, on a new last axis: rows of the row table when it may
        be built, else gathered through one index row per prefix entry."""
        if self.use_tables:
            key = (id(values), c)
            if key not in self._rows:
                rows = _row_table(values, self.params)
                self._rows[key] = rows if c == 1 else rows[:, self.scaled(c)]
            return self._rows[key][prefix]
        if self.params.p == 2:
            idx = prefix[..., None] ^ self.every
        else:
            idx = _sum_rows(prefix.ravel(), self.params)[:, self.scaled(c)]
        return values[idx.reshape(prefix.shape + (-1,))]

    def view(self, j: int, x1: int | None) -> np.ndarray:
        """Form j's table over the grid, or over the slice at x_1 = x1."""
        coeffs, values = self.forms[j].coeffs, self.tables[j]
        used = [i for i, c in enumerate(coeffs) if c]
        if not used:
            return values[:1].reshape((1,) * len(coeffs))
        i, *rest = used
        points = self.every if i or x1 is None else np.array([x1], dtype=np.int64)
        acc = self.scaled(coeffs[i])[points].reshape((1,) * i + (-1,))  # index over axes <= i
        if not rest:
            return _pad(values[acc], len(coeffs))
        *rest, last = rest
        for i in rest:
            acc = _pad(acc, i)
            if self.params.p == 2:
                acc = acc[..., None] ^ self.every
            else:
                acc = self.shifted(self.every, acc, coeffs[i])
        return _pad(self.shifted(values, _pad(acc, last), coeffs[last]), len(coeffs))

    def slice(self, x1: int | None) -> Iterator[np.ndarray]:
        """Every form's view over the whole grid (x1 None) or one x_1 slice,
        built one at a time as the caller asks for it."""
        return (self._free_of_x1[j] if j in self._free_of_x1 else self.view(j, x1)
                for j in range(len(self.forms)))


def _pad(a: np.ndarray, ndim: int) -> np.ndarray:
    """`a` with length-1 axes appended up to `ndim` axes."""
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def grid_tuples(flats, ell: int, params: FieldParams) -> np.ndarray:
    """Points (..., l, n) of the tuples at flat grid indices `flats` (shape
    (...)): a flat index read as a point of F_p^(n l) has the digits of x_l
    first, so x_1 is the most significant slot, as grid_slices lays it."""
    digits = index_digits(flats, FieldParams(params.p, params.n * ell))
    return digits.reshape(digits.shape[:-1] + (ell, params.n))[..., ::-1, :]


def grid_slices(
    tables: Sequence[np.ndarray],
    forms: Sequence[LinearForm],
    params: FieldParams,
    op,
    budget: int,
) -> Iterator[tuple[int, tuple[int, ...], np.ndarray]]:
    """op(v_1, ..., v_m) over the tuple grid of `forms`, v_j the view of
    tables[j] at a_j(x): yields (offset, shape, result) per piece, the whole
    grid of shape (p^n,)*l at offset 0 when it has at most GRID_CHUNK
    tuples, else one x_1 slice of shape (1,) + (p^n,)*(l-1) at a time,
    offset being the flat index (C order, x_1 most significant) of its
    first tuple.  The result broadcasts to `shape` but may have length 1
    on an axis that no form reads.  A grid of more than `budget` tuples
    raises BudgetError before any view is built.

    A view reads its table directly.  With x_k the last variable of a_j,
    a_j = prefix + c_k x_k, and the view is T[prefix] for the p^n x p^n
    row table T[i, y] = table[index(x_i + c_k y)], with length 1 on every
    axis a_j does not use: the prefix index is combined over only the axes
    with a nonzero coefficient, by broadcast XOR at p = 2 and by rows of the
    index row table at p >= 3.  A zero form reads table[0].  A row table is
    built only when its p^(2n) entries fit in the grid or slice; otherwise
    (an l = 2 grid walked by slices) one p^n row is gathered per slice.
    The views are built one at a time and folded into the result, so a
    piece holds the result and one view, each at most one entry per tuple
    in the tables' dtype, plus row tables no larger than the piece: about
    two bytes per tuple for boolean masks.
    """
    size = params.size
    step = size ** (forms[0].ell - 1)
    if size * step > budget:
        raise BudgetError(f"tuple grid {size * step} exceeds budget {budget}")
    sliced = size * step > GRID_CHUNK
    views = _FormViews(tables, forms, params, step if sliced else size * step)
    shape = (1 if sliced else size,) + (size,) * (forms[0].ell - 1)
    for x1 in range(size) if sliced else [None]:
        each = views.slice(x1)
        out = next(each)
        for i, v in enumerate(each):
            if i and np.broadcast_shapes(out.shape, v.shape) == out.shape:
                op(out, v, out=out)  # out is op's own array from here on
            else:
                out = op(out, v)
        yield (x1 or 0) * step, shape, out


def scan_grid(
    values: np.ndarray,
    constraint: AffineConstraint,
    params: FieldParams,
    targets: Sequence[int],
    first: bool = False,
    budget: int = ENUM_BUDGET,
) -> int | None:
    """Scan the tuple grid of `constraint` over `params` for tuples x with
    values[a_j(x)] == targets[j] for every form a_j.

    Returns the flat index of the first match in lexicographic order (x_1
    most significant; grid_tuples decodes it), or None, when `first`;
    otherwise the number of matches.  Each form reads the one-byte mask
    values == targets[j] through grid_slices, which charges the grid
    against `budget`, and the masks are ANDed, whole or one x_1 slice at a
    time, so a scan holds about two bytes per tuple of the grid or slice.
    """
    masks = {t: values == t for t in set(targets)}
    count = 0
    for offset, shape, ok in grid_slices(
        [masks[t] for t in targets], constraint.forms, params, np.bitwise_and, budget
    ):
        if first:
            ok = np.broadcast_to(ok, shape)
            i = int(ok.argmax())
            if ok.flat[i]:
                return offset + i
        else:
            count += int(np.count_nonzero(ok)) * (math.prod(shape) // ok.size)
    return None if first else count
