"""Basis-vector selection: approximately maximize ||g_h||_p over the unit ball.

Every route starts from the two ends of each output's spectrum: the top and
bottom eigenpairs of A_c, all from ``_spectrum_ends`` as two arrays, the
unit eigenvectors H (m, 2, d) and their eigenvalues q (m, 2). Dense-stored
operators get them exactly from one batched eigh over the (m, d, d) stack;
sparse and matrix-free operators from a seeded Lanczos run with full
reorthogonalisation. The l1 route keeps the end with the largest |q|, the
dominant eigenpair of the strongest output. The group routes (p = 2 or 1)
refine the distinct ends of every output with a nonzero spectrum by a
normalized-gradient recursion with Armijo backtracking, which never
decreases the objective f_p; on operators with a sign mirror
(``GradientOperator.mirror``) only the top ends, see ``select_group``.
All starts run in lockstep as one (b, d) block with one stacked apply per
step; a start leaves the block when its own recursion stops, and every
start's result is bit-identical to refining it alone. Every route's score
is the penalty's dual norm of g_h, which ``fit`` also reads as its stopping
certificate; an all-zero spectrum scores 0.0. An exhaustive
sign-pattern eigensolver provides the exact optimum for small output
counts, plus two cheap baselines for method comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gradients import GradientOperator


class OracleLimitError(ValueError):
    """Exact selection requested for too many outputs (cost is 2^m)."""


LANCZOS_EPS = 0.01            # eigenpair accuracy in (0, 1), see _lanczos_ends
LANCZOS_MAX_STEPS = 300       # Lanczos step cap (d caps it too)
REFINE_MAX_STEPS = 100
ARMIJO_SLOPE = 1e-4           # sufficient-increase share of the slope
ARMIJO_SHRINK = 0.5
ARMIJO_MAX_BACKTRACKS = 30
HUBER_DELTA = 1.0             # smoothing width of the p = 1 search direction
ORACLE_LIMIT = 12             # largest output count the exact oracle accepts


@dataclass
class SelectionResult:
    h: np.ndarray
    score: float               # ||g_h||_p for the route's p
    quad_values: np.ndarray    # per-output h^T A_c h (g_h = -quad_values)
    trace: list | None = None  # accepted objective values (refinement only)


def f_value(quad_values: np.ndarray, p: int) -> float:
    """Selection objective: f_1 = sum |q_c|, f_2 = sum q_c^2."""
    q = np.asarray(quad_values)
    return float(np.abs(q).sum()) if p == 1 else float(q @ q)


def _score_from_quads(q: np.ndarray, p: int) -> float:
    """||q||_p: f_1 for p = 1, sqrt(f_2) for p = 2."""
    return f_value(q, 1) if p == 1 else float(np.sqrt(f_value(q, 2)))


def _seeded_unit_vector(d: int, seed_key) -> np.ndarray:
    v = np.random.default_rng(seed_key).standard_normal(d)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v[0] = 1.0
        nrm = 1.0
    return v / nrm


def _lanczos_ends(op: GradientOperator, c: int, seed: int):
    """Top and bottom Ritz pairs of the output-c operator.

    Lanczos with full reorthogonalisation from a seeded start. It stops once
    both end Ritz residuals beta_k |s_k| are at most 0.05 LANCZOS_EPS max|theta|, or
    when the Krylov space is exhausted, after at most min(d, LANCZOS_MAX_STEPS)
    steps. Returns the top and bottom Ritz vectors as the rows of a (2, d)
    array and their Ritz values as a (2,) array.
    """
    steps = min(op.d, LANCZOS_MAX_STEPS)
    Q = np.empty((steps, op.d))           # Lanczos vectors, one per row
    T = np.zeros((steps, steps))          # their tridiagonal projection of A_c
    Q[0] = _seeded_unit_vector(op.d, (seed, c, 0))
    for k in range(steps):
        w = op.matvec(c, Q[k])
        T[k, k] = Q[k] @ w
        basis = Q[:k + 1]
        for _ in range(2):  # twice is enough for orthogonality to rounding
            w = w - basis.T @ (basis @ w)
        beta = np.linalg.norm(w)
        theta, S = np.linalg.eigh(T[:k + 1, :k + 1])
        tol = 0.05 * LANCZOS_EPS * max(abs(theta[0]), abs(theta[-1]))
        if k + 1 == steps or beta * max(abs(S[k, 0]), abs(S[k, -1])) <= tol:
            break
        Q[k + 1] = w / beta
        T[k + 1, k] = T[k, k + 1] = beta
    H = np.empty((2, op.d))
    for i, j in enumerate((-1, 0)):
        h = basis.T @ S[:, j]  # one GEMV per end: a batched product rounds differently
        H[i] = h / np.linalg.norm(h)
    return H, theta[[-1, 0]]


def _spectrum_ends(op: GradientOperator, seed: int):
    """The top and bottom eigenpairs of every output: (H, q).

    H[c] (2, d) holds output c's top and bottom unit eigenvectors as rows,
    and q[c] (2,) their eigenvalues, q[c, i] = H[c, i]^T A_c H[c, i]. The
    eigenvalues come back sorted, so A_c has an all-zero spectrum exactly
    when ``not q[c].any()``. Dense storage takes one batched eigh over the
    stored Grams; the other storages run Lanczos on the output's matvec.
    """
    if op.storage != "dense":
        ends = [_lanczos_ends(op, c, seed) for c in range(op.m)]
        return np.stack([H for H, _ in ends]), np.stack([q for _, q in ends])
    vals, vecs = np.linalg.eigh(op.stack)
    return vecs.transpose(0, 2, 1)[:, [-1, 0]], vals[:, [-1, 0]]


def select_l1(op: GradientOperator, seed: int) -> SelectionResult:
    """Best single-output quadratic form over both spectrum ends of every
    output; the score is max_c |q_c|, the l1 penalty's dual norm of g_h."""
    H, q = _spectrum_ends(op, seed)
    # output-major, top before bottom; argmax keeps the first of equal ends
    h = H.reshape(-1, op.d)[np.abs(q).argmax()]
    quads = op.quad_values(h)
    return SelectionResult(h=h, score=float(np.abs(quads).max()), quad_values=quads)


def _rowdots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Item j is A[j] @ B[j] for (b, d) blocks, by the dot an unbatched
    product makes (np.einsum and norm(axis=1) round differently)."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _matvecs(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Item j is M[j] @ V[j] for a (b, m, d) stack, by the same GEMV."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


def _f_rows(Q: np.ndarray, p: int) -> np.ndarray:
    """f_value of every row of Q, rounded as f_value rounds one row."""
    return np.abs(Q).sum(axis=1) if p == 1 else _rowdots(Q, Q)


def _refine_starts(op: GradientOperator, H0: np.ndarray, p: int):
    """Refine a (b, d) block of starts in lockstep; returns (H, traces).

    Row j of H and traces[j] are what the recursion documented at ``refine``
    gives from H0[j] alone, bit for bit: every per-start product is the same
    BLAS call on the same layout, and the Armijo search runs per row with
    exact halvings. The active starts carry H, AH = [A_c h], q and f. Each
    step makes one apply_block on their directions and judges every trial
    point in O(m b). A start retires, and the arrays are compacted, when it
    meets a stop condition: zero gradient, no ascent direction, a failed
    Armijo search, or a flat step.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    H = np.array(H0, dtype=np.float64, order="C")
    out = np.empty_like(H)
    active = np.arange(H.shape[0])
    AH = op.apply_block(H)
    Q = _matvecs(AH, H)
    F = _f_rows(Q, p)
    traces = [[float(f)] for f in F]

    def retire(stop, *arrays):
        out[active[stop]] = H[stop]
        keep = ~stop
        return [active[keep]] + [a[keep] for a in arrays]

    for _ in range(REFINE_MAX_STEPS):
        W = 4.0 * Q if p == 2 else 2.0 * np.clip(Q / HUBER_DELTA, -1.0, 1.0)
        G = np.matmul(W[:, None, :], AH)[:, 0]
        gnorm = np.sqrt(_rowdots(G, G))
        zero = gnorm == 0.0
        direction = G / np.where(zero, 1.0, gnorm)[:, None] - H
        slope = _rowdots(G, direction)
        stop = zero | (slope <= 0.0)
        if stop.any():
            active, H, AH, Q, F, direction, slope = retire(
                stop, H, AH, Q, F, direction, slope)
            if not active.size:
                break
        AD = op.apply_block(direction)
        cross = 2.0 * _matvecs(AH, direction)
        curve = _matvecs(AD, direction)
        eta = np.ones(active.size)
        for _ in range(ARMIJO_MAX_BACKTRACKS):
            Q_new = Q + eta[:, None] * (cross + eta[:, None] * curve)
            F_new = _f_rows(Q_new, p)
            accepted = F_new >= F + ARMIJO_SLOPE * eta * slope
            if accepted.all():
                break
            eta = np.where(accepted, eta, eta * ARMIJO_SHRINK)
        if not accepted.all():
            active, H, AH, Q, F, direction, AD, eta, Q_new, F_new = retire(
                ~accepted, H, AH, Q, F, direction, AD, eta, Q_new, F_new)
            if not active.size:
                break
        improved = F_new - F
        H = H + eta[:, None] * direction
        AH = AH + eta[:, None, None] * AD
        Q, F = Q_new, F_new
        for j, f in zip(active, F):
            traces[j].append(float(f))
        stop = improved < 1e-8 * np.maximum(np.abs(F), 1e-30)
        if stop.any():
            active, H, AH, Q, F = retire(stop, H, AH, Q, F)
            if not active.size:
                break
    out[active] = H
    return out, traces


def refine(op: GradientOperator, h0: np.ndarray, p: int) -> SelectionResult:
    """Ascend f_p from h0 by h <- (1-eta) h + eta grad/||grad||.

    The step eta starts at 1 and backtracks under an Armijo test; accepted
    steps never decrease the raw f_p, so the iterate sequence is monotone.
    For p = 1 the search direction uses a Huber-smoothed gradient while
    acceptance is still judged on the unsmoothed objective. The recursion
    stops on a zero gradient, a direction with no ascent, an Armijo search
    that fails ARMIJO_MAX_BACKTRACKS times, a step that gains less than
    1e-8 f, or after REFINE_MAX_STEPS steps. Its only settings are those
    module constants.

    Each step makes one stacked apply, AD = [A_c d] for the direction d.
    The carried AH = [A_c h] gives the gradient, every trial point is judged
    from q(h + eta d) = q + 2 eta (AH d) + eta^2 (AD d) in O(m), and an
    accepted step advances AH by eta AD. The returned quadratic forms are
    recomputed from the final h. This is the one-start case of the lockstep
    block recursion that ``select_group`` runs over all its starts.
    """
    H, traces = _refine_starts(op, np.asarray(h0, dtype=np.float64)[None], p)
    q = op.quad_values(H[0])
    return SelectionResult(h=H[0], score=_score_from_quads(q, p), quad_values=q,
                           trace=traces[0])


def select_group(op: GradientOperator, p: int, seed: int) -> SelectionResult:
    """Group-route selection: l1 initialization then monotone refinement.

    ``seed`` seeds the Lanczos starts (sparse and matrix-free storages).
    Both spectrum-end eigenvectors of every output with a nonzero spectrum
    (``q.any(axis=1)``) are refined (not just the single best), and the
    best refined point by f_p is returned. The single-init guarantee is
    preserved since that init is one of the candidates; the extra starts
    only help escape bad basins. When ``op.mirror`` is set, only the top
    end of each such output is refined: the spectrum is symmetric, the
    bottom end is (to the eigensolver's accuracy) the top end's sign
    mirror, and refining a mirror gives the mirror of the refined point
    with the same f_p. A bottom-end l1 pick is thus covered by its mirror,
    which has the same f_p.

    The distinct starts (|h_i . h_j| < 1 - 1e-6) are refined together as
    one (b, d) block, with one stacked apply per step for all of them; a
    start leaves the block when its own recursion stops. Every start's
    result is bit-identical to refining it alone with ``refine``. When
    every output's spectrum is all zero, the top end of output 0 (the l1
    route's pick) comes back unrefined, with score 0.0.
    """
    H, q = _spectrum_ends(op, seed)
    live = q.any(axis=1)
    if not live.any():
        h = H[0, 0]  # what select_l1 picks when every eigenvalue is 0
        quads = op.quad_values(h)
        return SelectionResult(h=h, score=_score_from_quads(quads, p), quad_values=quads)
    starts = H[live] if op.mirror is None else H[live, :1]
    distinct = []
    for h in starts.reshape(-1, op.d):
        if all(abs(h @ g) < 1.0 - 1e-6 for g in distinct):
            distinct.append(h)
    H, traces = _refine_starts(op, np.array(distinct), p)
    best = None
    for h, trace in zip(H, traces):
        q = op.quad_values(h)
        f = f_value(q, p)
        if best is None or f > best[0]:
            best = (f, h, q, trace)
    _, h, q, trace = best
    return SelectionResult(h=h, score=_score_from_quads(q, p), quad_values=q,
                           trace=trace)


def exact_oracle_linf(op: GradientOperator) -> SelectionResult:
    """Exact maximizer of f_1 by exhausting all sign patterns.

    For each s in {-1,+1}^m the sign-combined operator sum_c s_c A_c is
    assembled densely and its top eigenvector taken; the best candidate by
    f_1 is exact up to dense-eigensolver precision. Cost grows as 2^m, so
    more than ``ORACLE_LIMIT`` outputs are refused.
    """
    if op.m > ORACLE_LIMIT:
        raise OracleLimitError(
            f"exact selection has exponential complexity in the output count; "
            f"m={op.m} exceeds the limit {ORACLE_LIMIT}")
    mats = np.stack([op.dense_matrix(c) for c in range(op.m)])
    best_h, best_q, best_f = None, None, -1.0
    for signs in itertools.product((1.0, -1.0), repeat=op.m):
        M = np.tensordot(np.asarray(signs), mats, axes=1)
        vals, vecs = np.linalg.eigh(M)
        h = vecs[:, -1]
        q = np.einsum("cij,i,j->c", mats, h, h)
        f = float(np.abs(q).sum())
        if f > best_f:
            best_h, best_q, best_f = h, q, f
    return SelectionResult(h=best_h, score=best_f, quad_values=best_q)


def baseline_best_data(op: GradientOperator, ds) -> SelectionResult:
    """Best normalized data row by f_1 (zero rows skipped)."""
    best_h, best_q, best_f = None, None, -1.0
    X = ds.X
    for i in range(ds.n):
        row = X.getrow(i).toarray().ravel()
        nrm = np.linalg.norm(row)
        if nrm == 0.0:
            continue
        h = row / nrm
        q = op.quad_values(h)
        f = f_value(q, 1)
        if f > best_f:
            best_h, best_q, best_f = h, q, f
    if best_h is None:
        return SelectionResult(h=np.zeros(op.d), score=0.0, quad_values=np.zeros(op.m))
    return SelectionResult(h=best_h, score=best_f, quad_values=best_q)


_RANDOM_BASELINE_STREAM = 0x5EED

def baseline_random(op: GradientOperator, seed: int) -> SelectionResult:
    """A seeded random unit vector, evaluated as-is."""
    h = _seeded_unit_vector(op.d, (seed, _RANDOM_BASELINE_STREAM))
    q = op.quad_values(h)
    return SelectionResult(h=h, score=f_value(q, 1), quad_values=q)


def compare_methods(op: GradientOperator, seed: int, ds) -> dict[str, SelectionResult]:
    """Run every selection method (plus the exact oracle) on one instance."""
    results = {
        "l1-init+refine": select_group(op, 1, seed),
        "l1-init": select_l1(op, seed),
        "random-init": baseline_random(op, seed),
    }
    results["random-init+refine"] = refine(op, results["random-init"].h, 1)
    results["best-data"] = baseline_best_data(op, ds)
    results["exact"] = exact_oracle_linf(op)
    return results
