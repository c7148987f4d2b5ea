"""Row-sparsity penalties on the output matrix: values and proximal
operators (all row-wise over V's k rows of length m)."""

from __future__ import annotations

import numpy as np

PENALTIES = ("l1", "l1l2", "l1linf")


def _check_kind(kind: str) -> None:
    if kind not in PENALTIES:
        raise ValueError(f"unknown penalty {kind!r}; expected one of {PENALTIES}")


def penalty_value(kind: str, V: np.ndarray) -> float:
    _check_kind(kind)
    if kind == "l1":
        return float(np.abs(V).sum())
    if kind == "l1l2":
        return float(np.linalg.norm(V, axis=1).sum())
    return float(np.abs(V).max(axis=1).sum())


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {u : ||u||_1 <= radius} (exact, sort-based)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css - radius)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def prox(kind: str, V: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal operator of threshold * Omega applied row-wise.

    l1 soft-thresholds entries; l1/l2 shrinks each row's norm; l1/l_inf uses
    the Moreau identity v - proj_{l1 ball of radius threshold}(v).
    """
    _check_kind(kind)
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if kind == "l1":
        return np.sign(V) * np.maximum(np.abs(V) - threshold, 0.0)
    if kind == "l1l2":
        norms = np.linalg.norm(V, axis=1)
        scale = np.zeros_like(norms)
        nz = norms > 0
        scale[nz] = np.maximum(0.0, 1.0 - threshold / norms[nz])
        return V * scale[:, None]
    out = np.empty_like(V)
    for r in range(V.shape[0]):
        out[r] = V[r] - project_l1_ball(V[r], threshold)
    return out


def project_unit_rows(H: np.ndarray) -> np.ndarray:
    """Project every row of H onto the unit l2 ball."""
    # np.linalg.norm's sum without its call overhead; a row inside the ball
    # scales by 1 / 1, exactly 1
    norms = np.sqrt(np.add.reduce(H * H, axis=1))
    return H * (1.0 / np.maximum(norms, 1.0))[:, None]
