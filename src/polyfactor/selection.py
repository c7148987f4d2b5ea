"""Basis-vector selection: approximately maximize ||g_h||_p over the unit ball.

The l1 route runs one power method per output and keeps the best quadratic
form. The group routes (p = 2 or 1) start from that l1 winner and refine it
by a normalized-gradient recursion with Armijo backtracking, which never
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


@dataclass(frozen=True)
class SelectConfig:
    eps: float = 0.01                 # power-method tolerance in (0, 1)
    power_max_iter: int = 300
    refine_max_iter: int = 100
    armijo_slope: float = 1e-4
    armijo_shrink: float = 0.5
    armijo_max_backtracks: int = 30
    huber_delta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")
        if not 0.0 < self.armijo_slope <= 0.5:
            raise ValueError(f"armijo slope must be in (0, 0.5], got {self.armijo_slope}")
        if not 0.0 < self.armijo_shrink < 1.0:
            raise ValueError(f"armijo shrink must be in (0,1), got {self.armijo_shrink}")


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


def _radius_estimate(op, c, h, eps, max_iter):
    """Power iteration on the squared operator: ||A h|| rises monotonically
    to the spectral radius. The geometric tail still ahead is projected from
    successive increments; the loop stops once that projection drops below
    eps/8 of the current value."""
    rho_hat = 0.0
    prev = None
    prev_inc = None
    for it in range(max_iter):
        v = op.matvec(c, h)
        rho = float(np.linalg.norm(v))
        if rho == 0.0:
            break
        rho_hat = max(rho_hat, rho)
        w = op.matvec(c, v / rho)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        done = False
        if prev is not None and it >= 12:
            inc = rho - prev
            if abs(inc) < 1e-15 * rho:
                done = True
            elif prev_inc is not None and 0.0 < inc < prev_inc:
                ratio = inc / prev_inc
                done = inc * ratio / (1.0 - ratio) <= 0.05 * eps * rho
            prev_inc = inc
        elif prev is not None:
            prev_inc = rho - prev
        prev = rho
        h = w / nw
        if done:
            break
    return rho_hat, h


def _power_candidates(op: GradientOperator, c: int, cfg: SelectConfig):
    """Eigenvector candidates at both ends of the output-c spectrum.

    Plain power iteration stalls arbitrarily far from the spectral radius
    when the extreme eigenvalues nearly cancel or the start is almost
    orthogonal to the top eigenvector, so this runs in two stages, from two
    independent seeded starts each: first the squared-operator iteration for
    a monotone radius estimate, then shift-separated iterations (operator
    plus/minus the estimate) that isolate the most-positive and
    most-negative eigenvectors. Returns ([(h, quad form)...], degenerate);
    the flag marks an identically-zero operator.
    """
    starts = [_seeded_unit_vector(op.d, (cfg.seed, c, run)) for run in (0, 1)]
    rho_hat = 0.0
    warm = []
    for h0 in starts:
        rho_run, h_run = _radius_estimate(op, c, h0, cfg.eps, cfg.power_max_iter)
        rho_hat = max(rho_hat, rho_run)
        warm.append(h_run)
    if rho_hat == 0.0:
        return [(starts[0], 0.0)], True

    candidates = []
    best_h, best_q = starts[0], 0.0
    for h0 in warm:
        for sign in (1.0, -1.0):
            h = h0
            q = 0.0
            for _ in range(cfg.power_max_iter):
                Ah = op.matvec(c, h)
                q = float(h @ Ah)
                if abs(q) > abs(best_q):
                    best_h, best_q = h, q
                v = sign * Ah + rho_hat * h
                shifted = sign * q + rho_hat
                if np.linalg.norm(v - shifted * h) <= 0.025 * cfg.eps * abs(shifted):
                    break  # settled on an eigenvector of this end of the spectrum
                nrm = np.linalg.norm(v)
                if nrm == 0.0:
                    break
                h = v / nrm
            candidates.append((h, q))
    candidates.append((best_h, best_q))
    # the two starts usually converge to the same ends; drop the copies
    distinct = []
    for h, q in candidates:
        if all(abs(h @ g) < 1.0 - 1e-6 for g, _ in distinct):
            distinct.append((h, q))
    return distinct, False


def power_method(op: GradientOperator, c: int, cfg: SelectConfig) -> tuple[np.ndarray, float, bool]:
    """Best dominant-magnitude eigenpair estimate of the output-c operator.

    Returns (unit vector, quadratic-form value, degenerate flag); the value
    certifies (1 - eps) of the spectral radius.
    """
    candidates, degenerate = _power_candidates(op, c, cfg)
    h, q = max(candidates, key=lambda cand: abs(cand[1]))
    return h, q, degenerate


def select_l1(op: GradientOperator, cfg: SelectConfig) -> SelectionResult:
    """Best single-output quadratic form: one power method per output."""
    best_h, best_val = None, -1.0
    for c in range(op.m):
        h, val, _ = power_method(op, c, cfg)
        if abs(val) > best_val:
            best_h, best_val = h, abs(val)
    q = op.quad_values(best_h)
    degenerate = best_val == 0.0
    return SelectionResult(h=best_h, score=_score_from_quads(q, "inf"),
                           quad_values=q, method="l1", degenerate=degenerate)


def _huber_slope(q: np.ndarray, delta: float) -> np.ndarray:
    return np.clip(q / delta, -1.0, 1.0)


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
    for _ in range(cfg.refine_max_iter):
        if p == 2:
            w = 4.0 * q
        else:
            w = 2.0 * _huber_slope(q, cfg.huber_delta)
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
        for _ in range(cfg.armijo_max_backtracks):
            q_new = q + eta * (cross + eta * curve)
            f_new = f_value(q_new, p)
            if f_new >= f + cfg.armijo_slope * eta * slope:
                accepted = True
                break
            eta *= cfg.armijo_shrink
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

    Every spectrum-end eigenvector the per-output power methods produce is
    refined (not just the single best), and the best refined point by f_p is
    returned. The single-init guarantee is preserved since that init is one
    of the candidates; the extra starts only help escape bad basins.
    """
    inits = []
    for c in range(op.m):
        candidates, degenerate = _power_candidates(op, c, cfg)
        if not degenerate:
            inits.extend(candidates)
    if not inits:
        zero = select_l1(op, cfg)
        return SelectionResult(h=zero.h, score=_score_from_quads(zero.quad_values, p),
                               quad_values=zero.quad_values, method="l1+refine",
                               degenerate=True)
    distinct = []
    for h, _ in inits:
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
