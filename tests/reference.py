"""Small-n oracles shared by the test modules.  They index points digit by
digit and gather through flat int64 index grids, so they share no code with
the library kernels they check."""
import numpy as np


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
