"""Small-n oracles and helpers shared by the test modules.  The grid oracles
index points digit by digit and gather through flat int64 index grids, so
they share no code with the library kernels they check; the distance oracle
builds one table per polynomial, sharing only the monomial list and
polynomial values with the coset transform it checks; the conciseness oracle
is the kernel-completion construction that make_concise's row reduction
reproduces; the refinement and sampled-bias oracles are the library's
earlier implementations, an argsort with run-length scan and a per-digit
lambda loop; the grid-tuple decoder is the tester's earlier one, which
reads each tuple slot off the flat index by its place value.  The small
helpers at the end serve only the tests."""
import numpy as np

from affinetest import forms, gflinalg
from affinetest.factor import cell_index_array
from affinetest.field import BudgetError, FieldParams, index_digits, index_to_vec, unit_roots
from affinetest.forms import AffineConstraint, InducedConstraint, change_of_view
from affinetest.poly import Polynomial, monomials_up_to_degree


def domain_coords(params):
    """(n, p^n) array: row i holds coordinate i+1 of every domain point."""
    n, p, size = params.n, params.p, params.size
    coords = np.empty((n, size), dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    for i in range(n):
        coords[i] = idx % p
        idx //= p
    return coords


def reference_grid_point_indices(forms_, params):
    """The per-digit grid builder: digit t of a_j(x) is sum_k c_k x_k[t] mod p,
    accumulated over the whole grid for every digit of every form.  Returns
    one flat int64 index array per form, x_1 most significant."""
    p, n = params.p, params.n
    size = params.size
    ell = forms_[0].ell
    coords = domain_coords(params)
    out = []
    for f in forms_:
        idx = np.zeros((size,) * ell, dtype=np.int64)
        for t in range(n):
            digit = np.zeros((size,) * ell, dtype=np.int64)
            for k in range(ell):
                c = f.coeffs[k]
                if c:
                    view = [1] * ell
                    view[k] = size
                    digit = digit + c * coords[t].reshape(view)
            idx += (digit % p) * p**t
        out.append(idx.ravel())
    return out


def reference_matches(values, grids, targets):
    """Flat boolean mask over a tuple grid: values[grids[j]] == targets[j]
    for every j, with grids as reference_grid_point_indices builds them."""
    ok = values[grids[0]] == targets[0]
    for arr, t in zip(grids[1:], targets[1:]):
        ok &= values[arr] == t
    return ok


def reference_distance_to_degree(f, max_degree, budget=1 << 20):
    """Exact distance of f (labels = field values + 1) to the tables of
    degree <= max_degree, by one table per coefficient vector over
    monomials_up_to_degree, each compared with f point by point."""
    params = f.params
    monos = monomials_up_to_degree(params.p, params.n, max_degree)
    total = params.p ** len(monos)
    if total > budget:
        raise BudgetError(f"table family p^{len(monos)} = {total} exceeds budget {budget}")
    mono_vals = np.stack(
        [Polynomial.from_monomials(params.p, params.n, {e: 1}).values() for e in monos]
    )
    coeff_space = FieldParams(params.p, len(monos))
    target = f.values - 1
    best = params.size
    for pid in range(total):
        vals = np.array(index_to_vec(pid, coeff_space), dtype=np.int64) @ mono_vals % params.p
        best = min(best, int(np.count_nonzero(vals != target)))
    return best / params.size


def kernel_basis(mat, p):
    """Basis (as rows) of {x : mat @ x = 0 mod p}."""
    m = gflinalg.as_matrix(mat, p)
    rows, cols = m.shape
    ech, pivots = gflinalg.rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-ech[r, fc]) % p
    return basis


def reference_make_concise(ic):
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
    kernel = kernel_basis(coeff_mat, p)
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


def reference_is_semantic_refinement(fine, coarse, params=None, budget=1 << 24):
    """Whether fine-cell equality implies coarse-cell equality, by sorting the
    points by fine cell and checking the coarse cell is constant on each run."""
    if fine.polys:
        params = fine.params()
    elif coarse.polys:
        params = coarse.params()
    elif params is None:
        raise ValueError("two empty factors need explicit params")
    if params.size > budget:
        raise BudgetError("domain exceeds enumeration budget")
    fi = cell_index_array(fine, params)
    ci = cell_index_array(coarse, params)
    order = np.argsort(fi, kind="stable")
    fs, cs = fi[order], ci[order]
    starts = np.ones(len(fs), dtype=bool)
    starts[1:] = fs[1:] != fs[:-1]
    rep = cs[starts][np.cumsum(starts) - 1]
    return bool(np.all(rep == cs))


def reference_sampled_max_bias(factor, params, budget, seed):
    """The sampled bias certificate's maximum: `budget` seeded lambdas,
    decoded digit by digit, each scored on the occupied cells weighted by
    their point counts, 2^22 entries per chunk."""
    p, c = params.p, factor.complexity
    cells, weights = np.unique(cell_index_array(factor, params), return_counts=True)
    digits = (cells // p ** np.arange(c, dtype=np.int64)[:, None] % p).astype(np.float64)
    lam_ids = np.random.default_rng(seed).integers(1, p**c, size=budget, dtype=np.int64)
    lams = np.empty((len(lam_ids), c), dtype=np.float64)
    rem = lam_ids.copy()
    for i in range(c):
        lams[:, i] = rem % p
        rem //= p
    max_bias = 0.0
    roots = unit_roots(p)
    weights = weights.astype(np.float64)
    chunk = max(1, (1 << 22) // len(cells))
    for start in range(0, len(lams), chunk):
        combo = (lams[start : start + chunk] @ digits).astype(np.int64) % p
        sums = roots[combo] @ weights
        max_bias = max(max_bias, float(np.abs(sums).max() / params.size))
    return max_bias


def reference_grid_tuples(flats, ell, params):
    """Points (k, l, n) of the tuples at flat grid indices `flats`; grids lay
    x_1 on the most significant axis."""
    place = params.size ** np.arange(ell - 1, -1, -1, dtype=np.int64)
    return index_digits(flats[:, None] // place % params.size, params)


def cell_of_index(flat, factor):
    p = factor.polys[0].p if factor.polys else 2
    return index_to_vec(flat, FieldParams(p, factor.complexity))


def constant_part(poly):
    for e, c in poly.terms:
        if sum(e) == 0:
            return c
    return 0


def parse_induced_constraint(text):
    """One constraint block and its range size R."""
    col, r = forms.parse_collection(text)
    (ic,) = col.members
    return ic, r


def reference_degree_index_lt(a, b):
    """The anti-lexicographic order of degree indices: the largest degree
    whose counts differ decides, the fewer polynomials the smaller."""
    degrees = sorted(set(dict(a.counts)) | set(dict(b.counts)), reverse=True)
    for d in degrees:
        if a.count(d) != b.count(d):
            return a.count(d) < b.count(d)
    return False
