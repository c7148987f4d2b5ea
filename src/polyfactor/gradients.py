"""Negative-gradient operators for basis selection.

For each output c there is a symmetric d x d operator built from the design
matrix and the current per-sample loss gradients D (n x m):

    PN:  A_c = X^T diag(D[:, c]) X
    FM:  A_c = 0.5 * (X^T diag(D[:, c]) X - diag(S[:, c]))

with S[j, c] = sum_i D[i, c] x_{ij}^2 (the FM diagonal correction, which
cancels the diagonal of X^T diag(D[:, c]) X exactly). The row of the
negative objective gradient indexed by a candidate basis vector h is g_h
with g_{h,c} = -h^T A_c h.

The operators are stored in one of three ways, chosen from X alone:

- ``dense``: an (m, d, d) stack, when it has no more entries than X has
  nonzeros (m d^2 <= nnz(X); small dense X such as the vowel-shaped set);
- ``sparse``: every A_c's values on the slots (stored entries) of X^T X's
  sparsity pattern, when the rows' feature pairs number at most 2 nnz(X)
  (one-hot rows, such as user/item ratings with two nonzeros per row);
- ``free``: matrix-free applies, O(nnz(X)) each, for everything else.

Each refresh builds one array from D and checks it finite. The dense
storage keeps no state beyond X: it fills the stack with X^T (D[:, c] o X)
for all outputs in one GEMM per block of rows, densifying at most
DENSE_BLOCK entries of the scaled copy at a time (FM: diagonal zeroed, then
halved), so its memory stays within X plus the stack. The sparse storage
keeps a pair map M built with the operator: each row i contributes its
feature pairs (a, b) with weight x_ia x_ib (FM: a != b only, halved; no
a = b pair is gathered) to the slot of (a, b) in X^T X's pattern, so the
(m, slots) values P = (M @ D)^T of all m operators are one product. M is
read at refresh only: ``weighted`` and ``quad_values`` read P and the one
copy of the slots' pattern (their columns and each row's slot count). The
matrix-free storage builds the diagonals S = (X o X)^T D (FM subtracts
them; PN builds them so that an overflowing X is refused by name).

When X's pair graph (an edge (a, b) for every FM row with nonzeros at
a != b) is 2-colourable, ``mirror`` holds a colouring s in {-1, +1}^d. Every
A_c is then bipartite along it: the FM diagonal is zero and s_a s_b = -1 on
every stored entry, so diag(s) A_c diag(s) = -A_c for every output and
every D, and q(s o h) = -q(h). It is None for PN (whose diagonal is
nonzero) and for any FM data with a row of three or more nonzeros (that row
is a triangle).

Selection applies the operators one way, ``weighted``: the combination
sum_c w_c A_c, built once per weight vector in the storage's own form. Its
one eigen-solve, ``eigenpairs``, serves the spectrum ends (w = e_c, which
is A_c bit for bit) and the refinement rounds. ``quad_values`` reads every
output's h^T A_c h at once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .losses import loss_gradients, targets_for
from .models import MODEL_KINDS, outputs

# entries of the scaled copy held at once: the row block X_b (x) D_b of a
# dense-storage refresh
DENSE_BLOCK = 1 << 18
LANCZOS_EPS = 0.01            # eigenpair accuracy in (0, 1), see _lanczos
LANCZOS_MAX_STEPS = 300       # Lanczos step cap (d caps it too)


OVERFLOW_CAUSE = ("the likely cause is feature values so large that their products "
                  "overflow (rescale the features)")


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself, or FloatingPointError when the build that made it overflowed."""
    if not np.isfinite(a).all():
        raise FloatingPointError(f"non-finite gradient operator; {OVERFLOW_CAUSE}")
    return a


def _row_pairs(X: sp.csr_matrix, kind: str):
    """Every row's feature pairs (a, b) as (key, row, weight): key = a d + b,
    weight x_ia x_ib (FM: a != b only, dropped before any gather, halved)."""
    n, d = X.shape
    r = np.diff(X.indptr)
    row_of = np.repeat(np.arange(n), r)     # row of each stored entry
    width = r[row_of]
    # pair entry e with each entry f of its row
    e = np.repeat(np.arange(X.nnz), width)
    f = np.arange(e.size) - np.repeat(np.cumsum(width) - width - X.indptr[row_of], width)
    keep = e != f if kind == "fm" else slice(None)  # canonical CSR: a = b only at e = f
    e, f = e[keep], f[keep]
    with np.errstate(over="ignore"):  # an infinite weight is refused by set_gradients
        w = (0.5 if kind == "fm" else 1.0) * (X.data[e] * X.data[f])
    return X.indices[e].astype(np.int64) * d + X.indices[f], row_of[e], w


def _sign_mirror(X: sp.csr_matrix, kind: str) -> np.ndarray | None:
    """A colouring s in {-1, +1}^d with s_a s_b = -1 on every FM row pair
    (a, b), or None (PN, a row of three or more nonzeros, an odd cycle).

    Each column's key 2 r + t holds the largest column index r it has
    reached and the parity t of its distance from r. Each breadth-first
    level is one scatter-max of the neighbours' keys with the parity flipped
    (key ^ 1), taken where it brings a larger r, so every component is
    coloured from its largest index at once; one check on the pairs follows.
    """
    r = np.diff(X.indptr)
    if kind != "fm" or (r > 2).any():
        return None
    first = X.indptr[:-1][r == 2]
    a, b = X.indices[first], X.indices[first + 1]
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    key = 2 * np.arange(X.shape[1], dtype=np.int64)
    while True:
        offer = np.full_like(key, -1)
        np.maximum.at(offer, src, key[dst] ^ 1)
        take = offer >> 1 > key >> 1
        if not take.any():
            break
        key[take] = offer[take]
    s = 1.0 - 2.0 * (key & 1)
    return s if (s[a] != s[b]).all() else None


def _lanczos(apply, v0: np.ndarray, ends):
    """Ritz pairs at the given ends of a symmetric operator's spectrum.

    Lanczos with full reorthogonalisation from the unit vector v0, applying
    the operator by ``apply``. ``ends`` indexes the ascending Ritz values (-1
    the top, 0 the bottom). It stops once every requested end's Ritz residual
    beta_k |s_k| is at most 0.05 LANCZOS_EPS max|theta|, or when the Krylov
    space is exhausted, after at most min(d, LANCZOS_MAX_STEPS) steps.
    Returns the Ritz vectors as the rows of a (len(ends), d) array and their
    Ritz values. Q is allocated once for every step but left unwritten
    (np.empty), so only the rows a run writes become resident memory.
    """
    steps = min(v0.size, LANCZOS_MAX_STEPS)
    Q = np.empty((steps, v0.size))        # Lanczos vectors, one per row
    T = np.zeros((steps, steps))          # their tridiagonal projection
    Q[0] = v0
    for k in range(steps):
        w = apply(Q[k])
        T[k, k] = Q[k] @ w
        basis = Q[:k + 1]
        for _ in range(2):  # twice is enough for orthogonality to rounding
            w = w - basis.T @ (basis @ w)
        beta = np.linalg.norm(w)
        theta, S = np.linalg.eigh(T[:k + 1, :k + 1])
        tol = 0.05 * LANCZOS_EPS * max(abs(theta[0]), abs(theta[-1]))
        if k + 1 == steps or beta * max(abs(S[k, j]) for j in ends) <= tol:
            break
        Q[k + 1] = w / beta
        T[k + 1, k] = T[k, k + 1] = beta
    H = np.empty((len(ends), v0.size))
    for i, j in enumerate(ends):
        h = basis.T @ S[:, j]  # one GEMV per end: a batched product rounds differently
        H[i] = h / np.linalg.norm(h)
    return H, theta[list(ends)]


class GradientOperator:
    """Per-output quadratic forms over a fixed Dataset.

    It holds no gradients until ``refresh`` (from a model) or
    ``set_gradients`` installs them; everything else is read-only and cheap.
    ``storage`` names how the operators are held (``dense``, ``sparse`` or
    ``free``, see the module docstring). ``mirror`` is the sign vector s with
    s o (A_c (s o h)) = -A_c h, or None (module docstring).
    """

    def __init__(self, ds, kind: str, n_outputs: int | None = None):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        X = ds.X  # canonical CSR: Dataset refuses any other
        self.ds = ds
        self.kind = kind
        self.X = X
        self.n, self.d = X.shape
        if self.d < 1:
            raise ValueError("the data has no features (d = 0), so there is no "
                             "basis vector to select")
        self.m = ds.m if n_outputs is None else int(n_outputs)
        self.mirror = _sign_mirror(X, kind)
        r = np.diff(X.indptr).astype(np.int64)
        pairs = int(r @ r) if kind == "pn" else int(r @ (r - 1))
        if self.m * self.d * self.d <= X.nnz:
            self.storage = "dense"
        elif pairs <= 2 * X.nnz:
            self.storage = "sparse"
            # the pair map on the slots of X^T X's pattern, in row-major order:
            # (M @ D)[s, c] is the slot-s entry of A_c
            keys, rows, w = _row_pairs(X, kind)
            slots, slot_of = np.unique(keys, return_inverse=True)
            self.M = sp.csr_matrix((w, (slot_of.ravel(), rows)), shape=(slots.size, self.n))
            indptr = np.searchsorted(slots, np.arange(self.d + 1) * self.d)
            pattern = sp.csr_matrix((np.ones(slots.size), slots % self.d, indptr),
                                    shape=(self.d, self.d))
            self._pattern = (pattern.indices, pattern.indptr)  # scipy's dtype, so no copy
        else:
            self.storage = "free"
            self.XT = X.T

    def refresh(self, model) -> None:
        """Recompute D from the model's outputs and its loss's gradients."""
        O = outputs(model, self.ds.Xmul, self.ds.X2mul if model.kind == "fm" else None)
        self.set_gradients(loss_gradients(model.loss, targets_for(model.loss, self.ds), O))

    def set_gradients(self, D: np.ndarray) -> None:
        """Install loss-gradient diagonals directly and build the storage's
        one array from them (dense ``stack``, sparse ``P``, matrix-free ``S``).
        A build that overflows raises FloatingPointError naming the cause, as
        ``solver._select`` does for a non-finite score, instead of storing inf
        or nan.
        """
        D = np.asarray(D, dtype=np.float64)
        if D.shape != (self.n, self.m):
            raise ValueError(f"D has shape {D.shape}, expected {(self.n, self.m)}")
        with np.errstate(over="ignore", invalid="ignore"):
            if self.storage == "dense":
                self.stack = self._dense_stack(D)
            elif self.storage == "sparse":
                self.P = _finite(np.ascontiguousarray((self.M @ D).T))
            else:
                self.S = _finite(np.asarray(self.ds.X2.T @ D))
        self.D = D

    def _dense_stack(self, D: np.ndarray) -> np.ndarray:
        """The (m, d, d) stack of A_c, summed over blocks of rows of the
        dataset's ``Xmul`` (densified block by block when it is CSR). The sum
        is checked before FM zeroes its diagonal, which may hold the overflow."""
        n, d, m = self.n, self.d, self.m
        T = np.zeros((d, m * d))
        step = max(1, DENSE_BLOCK // (m * d))
        for lo in range(0, n, step):
            Xb = self.ds.Xmul[lo:lo + step]
            if sp.issparse(Xb):
                Xb = Xb.toarray()
            T += Xb.T @ (D[lo:lo + step, :, None] * Xb[:, None, :]).reshape(-1, m * d)
        stack = np.ascontiguousarray(_finite(T).reshape(d, m, d).transpose(1, 0, 2))
        if self.kind == "fm":
            stack[:, np.arange(d), np.arange(d)] = 0.0
            stack *= 0.5
        return stack

    def weighted(self, w: np.ndarray):
        """The function h -> sum_c w_c A_c h for output weights w, built in
        this storage: the summed (d, d) array (dense), one CSR on X^T X's
        pattern with the values w @ P (sparse; P[c] itself at w = e_c), or
        X^T ((D w) o (X h)), FM minus (S w) o h and halved (matrix-free)."""
        if self.storage == "dense":
            return np.tensordot(w, self.stack, 1).__matmul__
        if self.storage == "sparse":
            indices, indptr = self._pattern
            return sp.csr_matrix((w @ self.P, indices, indptr), shape=(self.d, self.d)).__matmul__
        u, X, XT = self.D @ w, self.X, self.XT
        if self.kind == "pn":
            return lambda h: XT @ (u * (X @ h))
        s = self.S @ w
        return lambda h: 0.5 * (XT @ (u * (X @ h)) - s * h)

    def matvec(self, c: int, h: np.ndarray) -> np.ndarray:
        """Apply the output-c operator to a vector (``weighted`` at the c-th
        unit vector; the benchmark tracer wraps it by name)."""
        return self.weighted(np.eye(self.m)[c])(h)

    def weighted_matvec(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Apply sum_c w_c A_c to a vector."""
        return self.weighted(w)(h)

    def eigenpairs(self, W: np.ndarray, starts, ends):
        """Eigenpairs of sum_c w_c A_c for each row w of the (r, m) weights W:
        unit eigenvectors H (r, len(ends), d) as rows and eigenvalues q (r,
        len(ends)), at ``ends`` of the ascending spectrum (-1 the top, 0 the
        bottom). Dense storage runs one batched eigh and ignores ``starts``;
        the others run ``_lanczos`` on ``weighted(w)`` from the row's start."""
        if self.storage == "dense":
            # one GEMV per row: a GEMM W @ stack rounds each row by the batch
            M = np.matmul(W[:, None], self.stack.reshape(self.m, -1))
            vals, vecs = np.linalg.eigh(M.reshape(-1, self.d, self.d))
            return vecs.transpose(0, 2, 1)[:, list(ends)], vals[:, list(ends)]
        runs = [_lanczos(self.weighted(w), v0, ends) for w, v0 in zip(W, starts)]
        return np.stack([H for H, _ in runs]), np.stack([q for _, q in runs])

    def quad_values(self, h: np.ndarray) -> np.ndarray:
        """All per-output quadratic forms h^T A_c h as a length-m vector."""
        if self.storage == "dense":
            # one GEMV per output: the GEMM stack @ h rounds differently, and
            # so does a GEMV on a strided h
            h = np.ascontiguousarray(h)
            return np.matmul(self.stack, h[:, None]).reshape(self.m, self.d) @ h
        if self.storage == "sparse":  # h_a h_b, so the mirror negates q exactly
            indices, indptr = self._pattern
            return self.P @ (np.repeat(h, np.diff(indptr)) * h[indices])
        z = self.X @ h
        t = (z * z) @ self.D
        if self.kind == "pn":
            return np.asarray(t)
        return 0.5 * (np.asarray(t) - (h * h) @ self.S)

    def dense_matrix(self, c: int) -> np.ndarray:
        """Materialized d x d operator, built from X; test/oracle use only (small d)."""
        Xd = self.X.toarray()
        M = Xd.T @ (self.D[:, c][:, None] * Xd)
        if self.kind == "pn":
            return M
        return 0.5 * (M - np.diag((Xd * Xd).T @ self.D[:, c]))
