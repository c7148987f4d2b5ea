"""Basis-vector selection: approximately maximize ||g_h||_p over the unit ball.

Every route starts from the two ends of each output's spectrum: the top and
bottom eigenpairs of A_c, all from ``_spectrum_ends`` as two arrays, the
unit eigenvectors H (m, 2, d) and their eigenvalues q (m, 2). The l1 route
keeps the end with the largest |q|, the dominant eigenpair of the strongest
output. The group routes (p = 2 or 1) refine the distinct ends of every
output with a nonzero spectrum, each by its own ``refine`` call, on
operators with a sign mirror (``GradientOperator.mirror``) only the top
ends, see ``select_group``. Refinement runs in rounds: each round moves to
the top eigenvector of the weighted operator sum_c w_c A_c, with weights w
read off the current quadratic forms, and is kept only when it raises the
objective f_p. ``GradientOperator.eigenpairs`` solves both the spectrum
ends and the rounds (exactly on dense storage, by seeded or warm-started
Lanczos on the others), so selection never reads how operators are stored.
Every route's score is the penalty's dual norm of g_h, which ``fit`` also
reads as its stopping certificate; an all-zero spectrum scores 0.0. An
exhaustive sign-pattern eigensolver provides the exact optimum for small
output counts, plus two cheap baselines for method comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gradients import GradientOperator


class OracleLimitError(ValueError):
    """Exact selection requested for too many outputs (cost is 2^m)."""


REFINE_MAX_ROUNDS = 50        # refinement round cap, see refine
HUBER_DELTA = 1.0             # smoothing width of the p = 1 round weights
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


def _spectrum_ends(op: GradientOperator, seed: int):
    """The top and bottom eigenpairs of every output: (H, q).

    H[c] (2, d) holds output c's top and bottom unit eigenvectors as rows,
    and q[c] (2,) their eigenvalues, q[c, i] = H[c, i]^T A_c H[c, i]. The
    eigenvalues come back sorted, so A_c has an all-zero spectrum exactly
    when ``not q[c].any()``. ``op.eigenpairs`` solves at the unit weight
    vectors; the Lanczos starts are drawn from ``seed`` only when it runs.
    """
    starts = (_seeded_unit_vector(op.d, (seed, c, 0)) for c in range(op.m))
    return op.eigenpairs(np.eye(op.m), starts, [-1, 0])


def select_l1(op: GradientOperator, seed: int) -> SelectionResult:
    """Best single-output quadratic form over both spectrum ends of every
    output; the score is max_c |q_c|, the l1 penalty's dual norm of g_h."""
    H, q = _spectrum_ends(op, seed)
    # output-major, top before bottom; argmax keeps the first of equal ends
    h = H.reshape(-1, op.d)[np.abs(q).argmax()]
    quads = op.quad_values(h)
    return SelectionResult(h=h, score=float(np.abs(quads).max()), quad_values=quads)


def _top_eigvector(op: GradientOperator, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The top unit eigenvector of M_w = sum_c w_c A_c, signed to agree with h."""
    top = op.eigenpairs(w[None], [h / np.linalg.norm(h)], [-1])[0][0, 0]
    return -top if top @ h < 0.0 else top


def refine(op: GradientOperator, h0: np.ndarray, p: int) -> SelectionResult:
    """Ascend f_p from the unit vector h0 by rounds on the weighted operator.

    Each round takes the weights w of the current quadratic forms q(h) (p =
    2: w = q; p = 1: w = clip(q / HUBER_DELTA, -1, 1), the gradient of the
    Huber-smoothed f_1) and moves to the top unit eigenvector h' of M_w =
    sum_c w_c A_c (``_top_eigvector``). h lies in the Krylov space, so
    h'^T M_w h' = w . q(h') >= w . q(h); as f_2 and the smoothed f_1 are
    convex in q, each round is a minorize-maximize step, and its fixed points
    are the h that are top eigenvectors of M_w(h). A round is accepted only
    when the raw f_p rises, so the trace of accepted values is increasing.
    The rounds stop on a round that does not rise, one that gains less than
    1e-8 f (it is still accepted), all-zero weights, or after
    REFINE_MAX_ROUNDS rounds. The quadratic forms are recomputed from each
    round's h by ``quad_values``.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    h = np.asarray(h0, dtype=np.float64)
    q = op.quad_values(h)
    f = f_value(q, p)
    trace = [f]
    for _ in range(REFINE_MAX_ROUNDS):
        w = q if p == 2 else np.clip(q / HUBER_DELTA, -1.0, 1.0)
        if not w.any():
            break
        h_new = _top_eigvector(op, w, h)
        q_new = op.quad_values(h_new)
        f_new = f_value(q_new, p)
        if not f_new > f:
            break
        gain = f_new - f
        h, q, f = h_new, q_new, f_new
        trace.append(f)
        if gain < 1e-8 * f:
            break
    return SelectionResult(h=h, score=_score_from_quads(q, p), quad_values=q, trace=trace)


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

    Each distinct start (|h_i . h_j| < 1 - 1e-6) goes through its own
    ``refine`` call; the first of equal bests wins. When every output's
    spectrum is all zero, the top end of output 0 (the l1 route's pick)
    comes back unrefined, with score 0.0.
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
    refined = [refine(op, h, p) for h in distinct]
    return max(refined, key=lambda res: f_value(res.quad_values, p))


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
    exact = exact_oracle_linf(op)  # first: it refuses more than ORACLE_LIMIT outputs
    results = {
        "l1-init+refine": select_group(op, 1, seed),
        "l1-init": select_l1(op, seed),
        "random-init": baseline_random(op, seed),
    }
    results["random-init+refine"] = refine(op, results["random-init"].h, 1)
    results["best-data"] = baseline_best_data(op, ds)
    return results | {"exact": exact}
