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
- ``sparse``: every A_c's values on one slot per unordered pair {a, b} of
  X^T X's sparsity pattern, when the rows' feature pairs number at most
  2 nnz(X) (one-hot rows, such as user/item ratings with two nonzeros per
  row);
- ``free``: matrix-free applies, O(nnz(X)) each, for everything else.

Each refresh builds one array from D and checks it finite. The dense
storage keeps no state beyond X: it fills the stack with X^T (D[:, c] o X)
for all outputs in one GEMM per block of rows, densifying at most
DENSE_BLOCK entries of the scaled copy at a time (FM: diagonal zeroed, then
halved), so its memory stays within X plus the stack. The sparse storage
keeps a pair map M built with the operator: each row i contributes each of
its feature pairs {a, b} once, with weight x_ia x_ib (FM: a != b only,
halved; no a = b pair is gathered; PN halves a = b), to the slot of (a, b)
in a matrix C_c with A_c = C_c + C_c^T, so the (m, slots) values P = (M @
D)^T of all m operators are one product. C is the triangle a <= b, or under
a mirror B, the smaller colour class's rows by the other class's columns.
M is read at refresh only: ``weighted``, ``eigenpairs`` and ``quad_values``
read P and the one copy of the slots' pattern (their columns and each row's
slot count). The matrix-free storage builds the diagonals S = (X o X)^T D
(FM subtracts them; PN builds them so that an overflowing X is refused by
name).

When X's pair graph (an edge (a, b) for every FM row with nonzeros at
a != b) is 2-colourable, ``mirror`` holds a colouring s in {-1, +1}^d. Every
A_c is then bipartite along it: the FM diagonal is zero and s_a s_b = -1 on
every stored entry, so diag(s) A_c diag(s) = -A_c for every output and
every D, and q(s o h) = -q(h). It is None for PN (whose diagonal is
nonzero) and for any FM data with a row of three or more nonzeros (that row
is a triangle). In its colour classes U (the smaller) and V every weighted
sum is [[0, B_w], [B_w^T, 0]], whose top eigenpair is B_w's top singular
triplet, so sparse storage solves it on the Gram side x -> B_w (B_w^T x) of
length |U| (``_bipartite_ends``) and returns the bottom end as the exact
mirror of the top end.

Selection applies the operators one way, ``weighted``: the combination
sum_c w_c A_c, built once per weight vector in the storage's own form (on
sparse storage, C from w @ P and its CSC view C^T). Its one eigen-solve,
``eigenpairs``, serves the spectrum ends (w = e_c, which is A_c bit for
bit) and the refinement rounds. ``quad_values`` reads every output's
h^T A_c h at once.
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


def _row_pairs(X: sp.csr_matrix, kind: str, in_rows=None):
    """Every row's feature pairs {a, b} once, as (a, b, row, weight): a is the
    endpoint in the column mask ``in_rows`` (None: a <= b), and the weight is
    x_ia x_ib, halved for FM and on the diagonal a = b (PN only: FM gathers
    no a = b pair), so that C + C^T counts each pair's value once."""
    r = np.diff(X.indptr)
    off = 1 if kind == "fm" else 0
    # pair entry e with each entry f >= e + off of its row (canonical CSR: f
    # > e exactly when b > a), in 32-bit indices while they fit: the storage
    # rule caps the pairs at 2 nnz(X)
    idx = np.int32 if 2 * X.nnz < 2 ** 31 else np.int64
    ent = np.arange(X.nnz, dtype=idx)
    width = np.repeat(X.indptr[1:].astype(idx), r) - ent - off
    e = np.repeat(ent, width)
    f = np.arange(e.size, dtype=idx) + np.repeat(ent + off - np.cumsum(width, dtype=idx) + width,
                                                 width)
    rows = np.repeat(np.arange(X.shape[0], dtype=idx), r * (r + 1 - 2 * off) // 2)
    a, b = X.indices[e], X.indices[f]
    if in_rows is not None:
        swap = ~in_rows[a]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
    with np.errstate(over="ignore"):  # an infinite weight is refused by set_gradients
        w = np.where(e == f, 0.5, 0.5 if kind == "fm" else 1.0) * (X.data[e] * X.data[f])
    return a, b, rows, w


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


def _bipartite_ends(B: sp.csr_matrix, sides, mirror: np.ndarray, v0: np.ndarray, ends):
    """``_lanczos``'s ends for A = [[0, B], [B^T, 0]] in the column classes
    ``sides`` = (U, V), from the top singular triplet of B.

    Lanczos runs on the Gram operator x -> B (B^T x) of length |U| from v0's
    normalised U part (a uniform vector when v0 has no mass on U). Its top
    Ritz vector u gives sigma = ||B^T u|| and the top end h = [u; B^T u /
    sigma] / sqrt(2) at +sigma; the bottom end is exactly ``mirror`` o h at
    -sigma. The Gram stop rule bounds A's Ritz residual rho / (sigma sqrt(2))
    by 0.05 LANCZOS_EPS sigma / sqrt(2). At sigma = 0 the top end is [u; 0];
    with U empty A is zero and it is v0.
    """
    U, V = sides
    h, sigma = v0, 0.0
    if U.size:
        x = v0[U]
        nrm = np.linalg.norm(x)
        x = x / nrm if nrm else np.full(U.size, U.size ** -0.5)
        BT = B.T  # the CSC view: no copy
        (u,), _ = _lanczos(lambda z: B @ (BT @ z), x, [-1])
        y = BT @ u
        sigma = float(np.linalg.norm(y))
        h = np.zeros(v0.size)
        if sigma:
            h[U], h[V] = u / np.sqrt(2.0), y / (sigma * np.sqrt(2.0))
        else:
            h[U] = u
    return (np.stack([h if j == -1 else mirror * h for j in ends]),
            np.array([sigma if j == -1 else -sigma for j in ends]))


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
            # one slot per unordered pair {a, b} of X^T X's pattern, in the
            # row-major order of a matrix C with A_c = C_c + C_c^T: the d x d
            # triangle a <= b, or under a mirror B, the smaller colour class
            # U's rows by the other class V's columns. (M @ D)[s, c] is the
            # slot-s entry of C_c
            if self.mirror is None:
                in_rows, U, V = None, np.arange(self.d), np.arange(self.d)
            else:
                in_rows = self.mirror < 0
                if 2 * in_rows.sum() > self.d:
                    in_rows = ~in_rows
                U, V = np.flatnonzero(in_rows), np.flatnonzero(~in_rows)
            self._sides = U, V
            pos = np.empty(self.d, dtype=np.int64)
            pos[U], pos[V] = np.arange(U.size), np.arange(V.size)
            a, b, rows, w = _row_pairs(X, kind, in_rows)
            slots, slot_of = np.unique(pos[a] * V.size + pos[b], return_inverse=True)
            self.M = sp.csr_matrix((w, (slot_of.ravel(), rows)), shape=(slots.size, self.n))
            indptr = np.searchsorted(slots, np.arange(U.size + 1) * V.size)
            pattern = sp.csr_matrix((np.ones(slots.size), slots % V.size, indptr),
                                    shape=(U.size, V.size))
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
        this storage: the summed (d, d) array (dense), C + C^T for the CSR C
        of the values w @ P on the slots (sparse; P[c] itself at w = e_c), or
        X^T ((D w) o (X h)), FM minus (S w) o h and halved (matrix-free)."""
        if self.storage == "dense":
            return np.tensordot(w, self.stack, 1).__matmul__
        if self.storage == "sparse":
            C, (U, V) = self._block(w), self._sides

            def apply(h):
                out = np.zeros(self.d)
                out[U] = C @ h[V]
                out[V] += C.T @ h[U]  # the CSC view: no copy
                return out
            return apply
        u, X, XT = self.D @ w, self.X, self.XT
        if self.kind == "pn":
            return lambda h: XT @ (u * (X @ h))
        s = self.S @ w
        return lambda h: 0.5 * (XT @ (u * (X @ h)) - s * h)

    def _block(self, w: np.ndarray) -> sp.csr_matrix:
        """C for the weights w: the CSR of w @ P on the slots (sparse storage)."""
        U, V = self._sides
        return sp.csr_matrix((w @ self.P, *self._pattern), shape=(U.size, V.size))

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
        sparse storage under a mirror runs ``_bipartite_ends`` on the row's C,
        and the others ``_lanczos`` on ``weighted(w)``, from the row's start."""
        if self.storage == "dense":
            # one GEMV per row: a GEMM W @ stack rounds each row by the batch
            M = np.matmul(W[:, None], self.stack.reshape(self.m, -1))
            vals, vecs = np.linalg.eigh(M.reshape(-1, self.d, self.d))
            return vecs.transpose(0, 2, 1)[:, list(ends)], vals[:, list(ends)]
        if self.storage == "sparse" and self.mirror is not None:
            runs = [_bipartite_ends(self._block(w), self._sides, self.mirror, v0, ends)
                    for w, v0 in zip(W, starts)]
        else:
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
            (indices, indptr), (U, V) = self._pattern, self._sides
            return 2.0 * (self.P @ (np.repeat(h[U], np.diff(indptr)) * h[V][indices]))
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
