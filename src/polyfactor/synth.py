"""Planted-model benchmark generators.

Classification samples are labelled by a hidden ground-truth quadratic model
with a shared basis, so a degree-2 learner can in principle reach perfect
accuracy; ratings come from a quantized low-rank user/item model. Both can
be written in the standard text formats to exercise the file loaders.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, make_dataset, write_blocks
from .data import save_svmlight as write_svmlight  # perfbench/workloads.py imports this name


def make_multiclass(n: int, d: int, m: int, n_basis: int = 6, seed: int = 0,
                    margin: float = 0.1) -> Dataset:
    """Multi-class samples labelled by a planted shared-basis quadratic model.

    Class scores are centered (an intercept a bias-augmented learner can
    absorb) so that no class dominates the argmax. Samples whose top-two
    centered scores differ by less than ``margin`` (relative to the score
    scale) are re-drawn.
    """
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n_basis, d))
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    V = rng.standard_normal((n_basis, m))

    calib = rng.standard_normal((4096, d))
    Zc = calib @ H.T
    Oc = (Zc * Zc) @ V
    offset = np.quantile(Oc, 0.85, axis=0)  # roughly equalize class win rates
    scale = np.median(np.abs(Oc - offset)) + 1e-12

    X = np.empty((n, d))
    y = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        batch = rng.standard_normal((max(2 * (n - filled), 64), d))
        Z = batch @ H.T
        O = (Z * Z) @ V - offset
        top2 = np.partition(O, kth=m - 2, axis=1)[:, -2:]
        ok = (top2[:, 1] - top2[:, 0]) >= margin * scale
        take = min(int(ok.sum()), n - filled)
        X[filled:filled + take] = batch[ok][:take]
        y[filled:filled + take] = np.argmax(O[ok][:take], axis=1) + 1
        filled += take
    return make_dataset(X, y, m)


def make_ratings(n_users: int, n_items: int, n_ratings: int, rank: int = 4,
                 seed: int = 0, noise: float = 0.05):
    """Quantized low-rank ratings; returns (user_id, item_id, rating) arrays.

    Every user and item id appears at least once so the one-hot design matrix
    has exactly n_users + n_items columns. Ids are 1-based like the MovieLens
    files; scores are cut at global quantiles into the levels 1..5.
    """
    if n_ratings < n_users + n_items:
        raise ValueError("need at least one rating per user and per item")
    if n_ratings > n_users * n_items:
        raise ValueError(f"{n_ratings} ratings exceed the {n_users * n_items} user/item pairs")
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_users, rank)) / np.sqrt(rank)
    Q = rng.standard_normal((n_items, rank)) / np.sqrt(rank)

    # coverage pairs first, then unique random pairs, as keys u * n_items + i
    cover_users = rng.integers(0, n_users, size=n_items)
    cover_items = rng.integers(0, n_items, size=n_users)
    keys = np.unique(np.concatenate([np.arange(n_users) * n_items + cover_items,
                                     cover_users * n_items + np.arange(n_items)]))
    need = n_ratings - keys.size
    while need > 0:
        u = rng.integers(0, n_users, size=int(1.3 * need) + 8)
        i = rng.integers(0, n_items, size=u.size)
        batch = u * n_items + i
        uniq, first = np.unique(batch, return_index=True)
        # each new key once, in draw order, until n_ratings are held
        fresh = batch[np.sort(first[~np.isin(uniq, keys, assume_unique=True)])][:need]
        keys = np.union1d(keys, fresh)
        need -= fresh.size
    u, i = np.divmod(keys[rng.permutation(keys.size)], n_items)

    scores = np.einsum("ij,ij->i", P[u], Q[i]) + noise * rng.standard_normal(u.size)
    # skewed level frequencies like typical ratings data
    share = np.array([0.06, 0.11, 0.27, 0.34, 0.22])
    cuts = np.quantile(scores, np.cumsum(share)[:-1])
    ratings = 1 + np.searchsorted(cuts, scores)
    return u + 1, i + 1, ratings.astype(np.int64)


def write_movielens(users, items, ratings, path, sep: str = "\t") -> None:
    """Write ratings as a MovieLens file, one record per row.

    Row r is ``user sep item sep rating sep 880000000+r`` and a newline,
    each field ``int()`` of the value given: integral floats write as
    integers, a non-integral one is truncated, and int64 ids write exactly
    (they never pass through float64). ``sep`` is a tab (the 100k release's
    ``u.data``) or ``::`` (the 1M release's ``ratings.dat``). The columns
    may be arrays or any other iterables; NaN or infinity, or columns of
    unequal length, are refused with ValueError. The rows are formatted and
    written a block at a time (``data.write_blocks``).
    """
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in (users, items, ratings)]
    sizes = [len(c) for c in columns]
    if len(set(sizes)) > 1:
        raise ValueError(f"users, items and ratings hold {sizes[0]}, {sizes[1]} and "
                         f"{sizes[2]} values; each row needs all three")
    record = sep.replace("%", "%%").join(["%d"] * 4) + "\n"

    def render(lo, hi):
        fields = [0] * (4 * (hi - lo))
        for j, column in enumerate(columns):
            fields[j::4] = _ints(column[lo:hi])
        fields[3::4] = range(880000000 + lo, 880000000 + hi)
        return record * (hi - lo) % tuple(fields)

    with open(path, "w", encoding="utf-8") as fh:
        write_blocks(fh, sizes[0], render)


def _ints(values) -> list:
    """``int()`` of each value: an integer array's values exactly, as
    ``tolist`` gives them; NaN and infinity refused with ValueError."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "biu":
            return values.tolist()
        values = values.tolist()
    try:
        return list(map(int, values))
    except OverflowError:
        raise ValueError("cannot convert an infinite id or rating to an integer") from None
