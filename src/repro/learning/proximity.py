"""MGP: the metagraph-based proximity family (Def. 3) and its gradient.

    pi(x, y; w) = 2 * (m_xy . w) / (m_x . w + m_y . w)

with non-negative weights ``w``.  Because every instance counted by
``m_xy[i]`` (x at a symmetric position together with y) is also counted
by ``m_x[i]`` and ``m_y[i]``, the numerator never exceeds the
denominator and ``pi`` lies in [0, 1].  When the denominator is zero the
numerator is zero too and ``pi`` is defined as 0 (no shared structure,
no evidence); ``pi(x, x)`` is 1 by convention (self-maximum).

The partial derivative used by supervised learning (Sect. III-B):

    d pi(v,u) / d w[i] =
        (2 * (m_v.w + m_u.w) * m_vu[i] - 2 * (m_vu.w) * (m_v[i] + m_u[i]))
        / (m_v.w + m_u.w)^2
"""

from __future__ import annotations

import numpy as np


def batch_mgp(
    m_xy: np.ndarray, m_x: np.ndarray, m_y: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Vectorised pi over stacked rows (n x d matrices)."""
    numerator = m_xy @ w
    denominator = m_x @ w + m_y @ w
    out = np.zeros(len(numerator))
    mask = denominator > 0.0
    out[mask] = 2.0 * numerator[mask] / denominator[mask]
    return out


def batch_mgp_gradient(
    m_xy: np.ndarray, m_x: np.ndarray, m_y: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Vectorised d pi / d w over stacked rows; returns an n x d matrix."""
    numerator = m_xy @ w
    denominator = m_x @ w + m_y @ w
    grad = np.zeros_like(m_xy)
    mask = denominator > 0.0
    if np.any(mask):
        d = denominator[mask][:, None]
        a = numerator[mask][:, None]
        grad[mask] = (2.0 * d * m_xy[mask] - 2.0 * a * (m_x[mask] + m_y[mask])) / (
            d * d
        )
    return grad
