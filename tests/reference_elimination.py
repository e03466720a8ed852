"""An independent exact oracle for the tests: Gauss-Jordan elimination on
nested lists, one scalar at a time, under a field descriptor's own
arithmetic.  rref shares no code with the package's elimination core,
so ranks, pivots, rrefs and kernels of the package are checked against
it.
"""

from apolarkit import modular


def rref(rows, field):
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, a) for a in rows[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def watch_object_eliminations(monkeypatch, record):
    """Call record(shape) at every modular.eliminate call on an object
    array: the package's elimination of a field's own scalars, which
    over QQ is the exact fallback of the p-adic kernel."""
    real = modular.eliminate

    def watching(a, *args, **kwargs):
        if a.dtype == object:
            record(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(modular, "eliminate", watching)
