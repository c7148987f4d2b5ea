"""Basis-vector selection: approximately maximize ||g_h||_p over the unit ball.

Every route starts from the two ends of each output's spectrum: the top and
bottom eigenpairs of A_c. Dense-stored operators get them exactly from one
batched eigh over the (m, d, d) stack; sparse and matrix-free operators from
a seeded Lanczos run with full reorthogonalisation. The l1 route keeps the
largest quadratic form. The group routes (p = 2 or 1) refine every end by a
normalized-gradient recursion with Armijo backtracking, which never
decreases the objective f_p. An exhaustive sign-pattern eigensolver provides
the exact optimum for small output counts, plus two cheap baselines for
method comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gradients import GradientOperator


class OracleLimitError(ValueError):
    """Exact selection requested for too many outputs (cost is 2^m)."""


LANCZOS_MAX_STEPS = 300       # Lanczos step cap (d caps it too)
REFINE_MAX_STEPS = 100
ARMIJO_SLOPE = 1e-4           # sufficient-increase share of the slope
ARMIJO_SHRINK = 0.5
ARMIJO_MAX_BACKTRACKS = 30
HUBER_DELTA = 1.0             # smoothing width of the p = 1 search direction


@dataclass(frozen=True)
class SelectConfig:
    eps: float = 0.01                 # eigenpair tolerance in (0, 1)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")


@dataclass
class SelectionResult:
    h: np.ndarray
    score: float               # ||g_h||_p for the route's p
    quad_values: np.ndarray    # per-output h^T A_c h (g_h = -quad_values)
    method: str
    degenerate: bool = False
    trace: list | None = None  # accepted objective values (refinement only)


def f_value(quad_values: np.ndarray, p: int) -> float:
    """Selection objective: f_1 = sum |q_c|, f_2 = sum q_c^2."""
    q = np.asarray(quad_values)
    return float(np.abs(q).sum()) if p == 1 else float(q @ q)


def _score_from_quads(q: np.ndarray, p) -> float:
    if p == 1:
        return float(np.abs(q).sum())
    if p == 2:
        return float(np.linalg.norm(q))
    return float(np.abs(q).max())  # p = inf (l1 route)


def _seeded_unit_vector(d: int, seed_key) -> np.ndarray:
    v = np.random.default_rng(seed_key).standard_normal(d)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v[0] = 1.0
        nrm = 1.0
    return v / nrm


def _lanczos_ends(op: GradientOperator, c: int, cfg: SelectConfig):
    """Top and bottom Ritz pairs of the output-c operator.

    Lanczos with full reorthogonalisation from a seeded start. It stops once
    both end Ritz residuals beta_k |s_k| are at most 0.05 eps max|theta|, or
    when the Krylov space is exhausted, after at most min(d, LANCZOS_MAX_STEPS)
    steps. Returns ((h_top, theta_top), (h_bottom, theta_bottom), degenerate).
    """
    steps = min(op.d, LANCZOS_MAX_STEPS)
    Q = np.empty((steps, op.d))           # Lanczos vectors, one per row
    T = np.zeros((steps, steps))          # their tridiagonal projection of A_c
    Q[0] = _seeded_unit_vector(op.d, (cfg.seed, c, 0))
    for k in range(steps):
        w = op.matvec(c, Q[k])
        T[k, k] = Q[k] @ w
        basis = Q[:k + 1]
        for _ in range(2):  # twice is enough for orthogonality to rounding
            w = w - basis.T @ (basis @ w)
        beta = np.linalg.norm(w)
        theta, S = np.linalg.eigh(T[:k + 1, :k + 1])
        tol = 0.05 * cfg.eps * max(abs(theta[0]), abs(theta[-1]))
        if k + 1 == steps or beta * max(abs(S[k, 0]), abs(S[k, -1])) <= tol:
            break
        Q[k + 1] = w / beta
        T[k + 1, k] = T[k, k + 1] = beta
    ends = []
    for j in (-1, 0):
        h = basis.T @ S[:, j]
        ends.append((h / np.linalg.norm(h), float(theta[j])))
    return ends[0], ends[1], not theta.any()


def _spectrum_ends(op: GradientOperator, cfg: SelectConfig, outputs=None):
    """Per output: ((h_top, q_top), (h_bottom, q_bottom), degenerate).

    q is h^T A_c h, the eigenvalue; degenerate marks an operator whose
    eigenvalues are all zero. Dense storage takes one batched eigh over the
    stored Grams; the other storages run Lanczos on the output's matvec.
    """
    outputs = range(op.m) if outputs is None else outputs
    if op.storage != "dense":
        return [_lanczos_ends(op, c, cfg) for c in outputs]
    vals, vecs = np.linalg.eigh(op.stack[list(outputs)])
    vecs = vecs.transpose(0, 2, 1).copy()  # row j is the j-th eigenvector
    return [((V[-1], float(lam[-1])), (V[0], float(lam[0])), not lam.any())
            for lam, V in zip(vals, vecs)]


def power_method(op: GradientOperator, c: int, cfg: SelectConfig) -> tuple[np.ndarray, float, bool]:
    """Dominant-magnitude eigenpair of the output-c operator.

    Returns (unit vector, quadratic-form value, degenerate flag); the value
    certifies (1 - eps) of the spectral radius.
    """
    top, bottom, degenerate = _spectrum_ends(op, cfg, [c])[0]
    h, q = max(top, bottom, key=lambda end: abs(end[1]))
    return h, q, degenerate


def select_l1(op: GradientOperator, cfg: SelectConfig) -> SelectionResult:
    """Best single-output quadratic form over both spectrum ends of every output."""
    best_h, best_val = None, -1.0
    for top, bottom, _ in _spectrum_ends(op, cfg):
        for h, val in (top, bottom):
            if abs(val) > best_val:
                best_h, best_val = h, abs(val)
    q = op.quad_values(best_h)
    degenerate = best_val == 0.0
    return SelectionResult(h=best_h, score=_score_from_quads(q, "inf"),
                           quad_values=q, method="l1", degenerate=degenerate)


def refine(op: GradientOperator, h0: np.ndarray, p: int, cfg: SelectConfig,
           method: str = "refine") -> SelectionResult:
    """Ascend f_p from h0 by h <- (1-eta) h + eta grad/||grad||.

    The step eta starts at 1 and backtracks under an Armijo test; accepted
    steps never decrease the raw f_p, so the iterate sequence is monotone.
    For p = 1 the search direction uses a Huber-smoothed gradient while
    acceptance is still judged on the unsmoothed objective.

    Each step makes one stacked apply, AD = [A_c d] for the direction d.
    The carried AH = [A_c h] gives the gradient, every trial point is judged
    from q(h + eta d) = q + 2 eta (AH d) + eta^2 (AD d) in O(m), and an
    accepted step advances AH by eta AD. The returned quadratic forms are
    recomputed from the final h.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    h = np.asarray(h0, dtype=np.float64)
    AH = op.apply_all(h)
    q = AH @ h
    f = f_value(q, p)
    trace = [f]
    for _ in range(REFINE_MAX_STEPS):
        if p == 2:
            w = 4.0 * q
        else:
            w = 2.0 * np.clip(q / HUBER_DELTA, -1.0, 1.0)
        grad = w @ AH
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        direction = grad / gnorm - h
        slope = float(grad @ direction)
        if slope <= 0.0:
            break
        AD = op.apply_all(direction)
        cross = 2.0 * (AH @ direction)
        curve = AD @ direction
        eta = 1.0
        accepted = False
        for _ in range(ARMIJO_MAX_BACKTRACKS):
            q_new = q + eta * (cross + eta * curve)
            f_new = f_value(q_new, p)
            if f_new >= f + ARMIJO_SLOPE * eta * slope:
                accepted = True
                break
            eta *= ARMIJO_SHRINK
        if not accepted:
            break
        improved = f_new - f
        h = h + eta * direction
        AH = AH + eta * AD
        q, f = q_new, f_new
        trace.append(f)
        if improved < 1e-8 * max(abs(f), 1e-30):
            break
    q = op.quad_values(h)
    return SelectionResult(h=h, score=_score_from_quads(q, p), quad_values=q,
                           method=method, trace=trace)


def select_group(op: GradientOperator, p: int, cfg: SelectConfig) -> SelectionResult:
    """Group-route selection: l1 initialization then monotone refinement.

    Both spectrum-end eigenvectors of every output are refined (not just
    the single best), and the best refined point by f_p is returned. The
    single-init guarantee is preserved since that init is one of the
    candidates; the extra starts only help escape bad basins.
    """
    inits = []
    for top, bottom, degenerate in _spectrum_ends(op, cfg):
        if not degenerate:
            inits.extend((top[0], bottom[0]))
    if not inits:
        zero = select_l1(op, cfg)
        return SelectionResult(h=zero.h, score=_score_from_quads(zero.quad_values, p),
                               quad_values=zero.quad_values, method="l1+refine",
                               degenerate=True)
    distinct = []
    for h in inits:
        if all(abs(h @ g) < 1.0 - 1e-6 for g in distinct):
            distinct.append(h)
    best = None
    for h in distinct:
        result = refine(op, h, p, cfg, method="l1+refine")
        f = f_value(result.quad_values, p)
        if best is None or f > best[0]:
            best = (f, result)
    return best[1]


def exact_oracle_linf(op: GradientOperator, limit: int = 12) -> SelectionResult:
    """Exact maximizer of f_1 by exhausting all sign patterns.

    For each s in {-1,+1}^m the sign-combined operator sum_c s_c A_c is
    assembled densely and its top eigenvector taken; the best candidate by
    f_1 is exact up to dense-eigensolver precision. Cost grows as 2^m.
    """
    if op.m > limit:
        raise OracleLimitError(
            f"exact selection has exponential complexity in the output count; "
            f"m={op.m} exceeds the limit {limit}")
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
    return SelectionResult(h=best_h, score=best_f, quad_values=best_q, method="exact")


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
        z = np.zeros(op.d)
        return SelectionResult(h=z, score=0.0, quad_values=np.zeros(op.m),
                               method="best-data", degenerate=True)
    return SelectionResult(h=best_h, score=best_f, quad_values=best_q, method="best-data")


_RANDOM_BASELINE_STREAM = 0x5EED

def baseline_random(op: GradientOperator, cfg: SelectConfig) -> SelectionResult:
    """A seeded random unit vector, evaluated as-is."""
    h = _seeded_unit_vector(op.d, (cfg.seed, _RANDOM_BASELINE_STREAM))
    q = op.quad_values(h)
    return SelectionResult(h=h, score=f_value(q, 1), quad_values=q, method="random")


def compare_methods(op: GradientOperator, cfg: SelectConfig, ds=None,
                    oracle_limit: int = 12) -> dict[str, SelectionResult]:
    """Run every selection method (plus the exact oracle) on one instance."""
    results = {
        "l1-init+refine": select_group(op, 1, cfg),
        "l1-init": select_l1(op, cfg),
        "random-init": baseline_random(op, cfg),
    }
    results["random-init+refine"] = refine(op, results["random-init"].h, 1, cfg,
                                           method="random-init+refine")
    if ds is not None:
        results["best-data"] = baseline_best_data(op, ds)
    results["exact"] = exact_oracle_linf(op, limit=oracle_limit)
    return results
