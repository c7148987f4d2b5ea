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


def project_l1_ball(V: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of every row of V (a 1-D v is one row) onto {u :
    ||u||_1 <= radius}, exact and sort-based; a row inside comes back as is."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    A = np.abs(V)
    inside = A.sum(axis=-1, keepdims=True) <= radius
    if radius == 0.0:
        return np.where(inside, V, 0.0)
    U = np.sort(A, axis=-1)[..., ::-1]
    css = np.cumsum(U, axis=-1)
    # rho: the last j (from 0) with u_j * (j + 1) > css_j - radius
    past = U * np.arange(1, V.shape[-1] + 1) > css - radius
    rho = V.shape[-1] - 1 - np.argmax(past[..., ::-1], axis=-1, keepdims=True)
    theta = (np.take_along_axis(css, rho, axis=-1) - radius) / (rho + 1.0)
    return np.where(inside, V, np.sign(V) * np.maximum(A - theta, 0.0))


def prox(kind: str, V: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal operator of threshold * Omega applied row-wise.

    l1 soft-thresholds entries; l1/l2 shrinks each row's norm; l1/l_inf uses
    the Moreau identity V - proj_{l1 ball of radius threshold}(V), all rows at once.
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
    return V - project_l1_ball(V, threshold)


def project_unit_rows(H: np.ndarray) -> np.ndarray:
    """Project every row of H onto the unit l2 ball."""
    # np.linalg.norm's sum without its call overhead; a row inside the ball
    # scales by 1 / 1, exactly 1
    norms = np.sqrt(np.add.reduce(H * H, axis=1))
    return H * (1.0 / np.maximum(norms, 1.0))[:, None]
