"""Small-n oracles shared by the test modules.  They index points digit by
digit and gather through flat int64 index grids, so they share no code with
the library kernels they check; the distance oracle builds one table per
polynomial, sharing only the monomial list and polynomial values with the
coset transform it checks."""
import numpy as np

from affinetest.field import BudgetError, FieldParams, index_to_vec
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
