"""Affine constraints and the algebra of linear forms.

An affine constraint in normal form is a tuple of linear forms
a_1, ..., a_m on variables X_1, ..., X_l with a_1 = X_1 and every a_i
carrying coefficient 1 on X_1.  An induced constraint pairs the forms with a
forbidden label pattern sigma in [R]^m.  This module also provides the
Cauchy-Schwarz complexity of a form system, tensor powers and the
(d_1, ..., d_C)-dimension, changes of view, conciseness normalization, and
the consistency predicate for tuples of cell images.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import gflinalg
from .field import BudgetError, FieldParams, canonical_index

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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
    concise: bool = False

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if self.concise:
            for ic in self.members:
                if ic.constraint.ell > ic.constraint.size:
                    raise ValueError("concise collection contains an l > m member")

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

    @property
    def width(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def row(self, i: int) -> tuple[int, ...]:
        """The row (b_{i,1}, ..., b_{i,m}) across all forms."""
        return tuple(b[i] for b in self.cells)


# --- Cauchy-Schwarz complexity ---------------------------------------------


def _span_contains(basis_rows: list[np.ndarray], vec: np.ndarray, p: int) -> bool:
    if not basis_rows:
        return not vec.any()
    return gflinalg.in_rowspan(np.vstack(basis_rows), vec, p)


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
            if not _span_contains(classes[c], target, p):
                if rec(i + 1):
                    classes[c].pop()
                    return True
            classes[c].pop()
        return False

    return rec(0)


def cs_complexity(forms: Sequence[LinearForm], max_forms: int = MAX_CS_FORMS) -> int | None:
    """Minimal s such that each form can be separated from the rest by an
    (s+1)-part partition avoiding its span; None if no finite s exists.

    Exhaustive backtracking over set partitions with span checks by Gaussian
    elimination.  Capped at `max_forms` forms (Bell-number growth); beyond the
    cap a BudgetError reports the untried lower bound.
    """
    m = len(forms)
    if m < 1:
        raise ValueError("need at least one form")
    p = forms[0].p
    if any(f.p != p or f.ell != forms[0].ell for f in forms):
        raise ValueError("forms must share p and variable count")
    if m > max_forms:
        raise BudgetError(f"cs_complexity capped at {max_forms} forms; result unknown >= 0")
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


def tensor_power(form: LinearForm, d: int, max_entries: int = MAX_TENSOR_ENTRIES) -> np.ndarray:
    """The d-th tensor power of a form as a vector in F_p^(l^d).

    Entry at multi-index (i_1, ..., i_d) is prod_j coeffs[i_j], stored at the
    little-endian index sum_j i_j * l^(j-1), matching canonical_index.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    ell = form.ell
    if ell**d > max_entries:
        raise BudgetError(f"tensor power size {ell}^{d} exceeds budget")
    vec = np.array(form.coeffs, dtype=np.int64)
    out = np.array([1], dtype=np.int64)
    for _ in range(d):
        out = np.outer(vec, out).ravel() % form.p
    return out


def dimension_d(forms: Sequence[LinearForm], d: int, max_entries: int = MAX_TENSOR_ENTRIES) -> int:
    """Rank over F_p of the d-th tensor powers of the forms."""
    p = forms[0].p
    mat = np.vstack([tensor_power(f, d, max_entries) for f in forms])
    return gflinalg.rank(mat, p)


def mixed_dimension(
    forms: Sequence[LinearForm], degrees: Sequence[int], max_entries: int = MAX_TENSOR_ENTRIES
) -> int:
    """The (d_1, ..., d_C)-dimension: sum_i dimension_d(forms, d_i)."""
    if any(d < 1 for d in degrees):
        raise ValueError("all degrees must be >= 1")
    return sum(dimension_d(forms, d, max_entries) for d in degrees)


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

    If l <= m the input is returned unchanged.  Otherwise a basis whose first
    l-m vectors annihilate every form is used as a change of view; the columns
    for the eliminated variables are asserted zero, and the distinguished
    variable is relabeled back to X_1.  Freeness is preserved for every f.
    """
    a = ic.constraint
    p, ell, m = a.p, a.ell, a.size
    if ell <= m:
        return ic
    coeff_mat = np.array([f.coeffs for f in a.forms], dtype=np.int64)
    kernel = gflinalg.kernel_basis(coeff_mat, p)
    if kernel.shape[0] < ell - m:
        raise AssertionError("kernel smaller than l - m; basis completion bug")
    basis = [kernel[i] for i in range(ell - m)]
    # complete inside the hyperplane v_1 = 0, then append e_1 last so the
    # distinguished variable survives the relabeling
    for j in range(1, ell):
        if len(basis) == ell - 1:
            break
        cand = np.zeros(ell, dtype=np.int64)
        cand[j] = 1
        if not gflinalg.in_rowspan(np.vstack(basis), cand, p):
            basis.append(cand)
    e1 = np.zeros(ell, dtype=np.int64)
    e1[0] = 1
    basis.append(e1)
    M = np.stack(basis, axis=1)  # columns are the basis vectors
    if not gflinalg.is_invertible(M, p):
        raise AssertionError("constructed view matrix is singular")
    new_forms = change_of_view(a.forms, M)
    rows = []
    for f in new_forms:
        c = f.coeffs
        if any(c[: ell - m]):
            raise AssertionError("eliminated variable has nonzero coefficient")
        if c[ell - 1] != 1:
            raise AssertionError("distinguished variable lost unit coefficient")
        rows.append((c[ell - 1],) + tuple(c[ell - m : ell - 1]))
    return InducedConstraint(AffineConstraint.from_rows(p, rows), ic.sigma)


def make_concise_collection(col: ConstraintCollection) -> ConstraintCollection:
    return ConstraintCollection(tuple(make_concise(ic) for ic in col.members), concise=True)


# --- consistency ------------------------------------------------------------

_kernel_cache: dict[tuple, np.ndarray] = {}
_kernel_lock = threading.Lock()


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
    with _kernel_lock:
        _kernel_cache.setdefault(key, ech)
    return _kernel_cache[key]


def consistency_check(
    constraint: AffineConstraint, degrees: Sequence[int], images: CellImage
) -> bool:
    """True iff the cell images are consistent with the constraint and degrees.

    Row by row: (b_{i,1}, ..., b_{i,m}) must lie in the row space of the
    matrix with columns a_j^(x d_i), equivalently be orthogonal to its kernel.
    The per-row split of the joint condition is valid because the lambda rows
    are unconstrained across i.
    """
    if images.width != len(degrees):
        raise ValueError("image width must match the degree list")
    p = constraint.p
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


def parse_induced_constraint(text: str) -> tuple[InducedConstraint, int]:
    lines = [ln for ln in text.strip().split("\n")]
    p, _ell, m, r = (int(t) for t in lines[0].split())
    rows = [[int(t) for t in lines[1 + i].split()] for i in range(m)]
    sigma = tuple(int(t) for t in lines[1 + m].split())
    ic = InducedConstraint(AffineConstraint.from_rows(p, rows), sigma)
    return ic, r


def dump_collection(col: ConstraintCollection, range_size: int) -> str:
    return "\n".join(dump_induced_constraint(ic, range_size) for ic in col.members)


def parse_collection(text: str) -> tuple[ConstraintCollection, int]:
    blocks = [b for b in text.strip().split("\n\n") if b.strip()]
    members = []
    r = 1
    for b in blocks:
        ic, r = parse_induced_constraint(b)
        members.append(ic)
    return ConstraintCollection(tuple(members)), r


def grid_point_indices(
    constraint: AffineConstraint, params: FieldParams, chunk_var: int | None = None
) -> list[np.ndarray]:
    """Per-form arrays of canonical point indices of a_j(x_1, ..., x_l) over
    the full tuple grid (F_p^n)^l laid out with x_1 as the most significant
    axis (lexicographic order).

    With chunk_var set, the grid is restricted to a fixed canonical index of
    x_1 (used to walk large grids one slice at a time).
    """
    from .field import domain_coords  # local import to keep module deps one-way

    p, n = params.p, params.n
    size = params.size
    ell = constraint.ell
    coords = domain_coords(params)
    axes = ell if chunk_var is None else ell - 1
    shape = (size,) * axes
    out = []
    for f in constraint.forms:
        idx = np.zeros(shape, dtype=np.int64)
        for t in range(n):
            digit = np.zeros(shape, dtype=np.int64)
            for k in range(ell):
                c = f.coeffs[k]
                if not c:
                    continue
                if chunk_var is not None and k == 0:
                    digit += c * coords[t, chunk_var]
                else:
                    ax = k if chunk_var is None else k - 1
                    view = [1] * axes
                    view[ax] = size
                    digit = digit + c * coords[t].reshape(view)
            idx += (digit % p) * p**t
        out.append(idx.ravel())
    return out


def grid_matches(
    values: np.ndarray, grids: Sequence[np.ndarray], targets: Sequence[int]
) -> np.ndarray:
    """Boolean mask over a tuple grid: values[grids[j]] == targets[j] for every j."""
    ok = values[grids[0]] == targets[0]
    for arr, t in zip(grids[1:], targets[1:]):
        ok &= values[arr] == t
    return ok


def scan_grid(
    values: np.ndarray,
    constraint: AffineConstraint,
    params: FieldParams,
    targets: Sequence[int],
    first: bool = False,
) -> int | None:
    """Scan the tuple grid of `constraint` over `params` for tuples x with
    values[a_j(x)] == targets[j] for every form a_j.

    Returns the flat index of the first match in lexicographic order (x_1
    most significant), or None, when `first`; otherwise the number of
    matches.  Grids above GRID_CHUNK tuples are walked one x_1 slice at a
    time to bound memory.
    """
    size = params.size
    step = size ** (constraint.ell - 1)
    slices = [None] if size * step <= GRID_CHUNK else range(size)
    count = 0
    for x1 in slices:
        ok = grid_matches(values, grid_point_indices(constraint, params, chunk_var=x1), targets)
        if first:
            i = int(ok.argmax())
            if ok[i]:
                return (x1 or 0) * step + i
        else:
            count += int(np.count_nonzero(ok))
    return None if first else count
