"""Dense references for Levenberg-Marquardt training.

mlp_train minimises loss_msereg and never forms the residual vector or its
Jacobian; classifiers._normal_blocks builds J^T J and J^T r blockwise. These
two functions state r and J densely so tests can check that chain: finite
differences of _residuals against _jacobian, _jacobian against
_normal_blocks, and r @ r against loss_msereg.
"""

import numpy as np

from handgeo.classifiers import _forward


def _residuals(theta, x, t, hidden, gamma, reg_scale):
    """Stacked residual vector [s (t - out), reg_scale theta], s^2 = gamma / t.size.

    With reg_scale^2 = (1 - gamma) / theta.size its squared sum is
    loss_msereg(t, out, theta, gamma).
    """
    n_out = t.shape[1]
    out, _, _ = _forward(theta, x, hidden, n_out)
    data_scale = np.sqrt(gamma / t.size)
    r = data_scale * (t - out).ravel()
    if reg_scale:
        r = np.concatenate([r, reg_scale * theta])
    return r


def _jacobian(theta, x, t, hidden, gamma, reg_scale):
    """Analytic Jacobian of _residuals with respect to theta."""
    n, n_in = x.shape
    n_out = t.shape[1]
    _, a1, w2 = _forward(theta, x, hidden, n_out)
    d1 = 1.0 - a1**2  # tanh'
    eye = np.arange(n_out)

    dw1 = np.einsum("ch,nh,ni->nchi", w2, d1, x).reshape(n, n_out, hidden * n_in)
    db1 = np.einsum("ch,nh->nch", w2, d1)
    dw2 = np.zeros((n, n_out, n_out, hidden))
    dw2[:, eye, eye, :] = a1[:, None, :]
    dw2 = dw2.reshape(n, n_out, n_out * hidden)
    db2 = np.zeros((n, n_out, n_out))
    db2[:, eye, eye] = 1.0

    data_scale = np.sqrt(gamma / t.size)
    j = -data_scale * np.concatenate([dw1, db1, dw2, db2], axis=2).reshape(
        n * n_out, theta.size
    )
    if reg_scale:
        j = np.vstack([j, reg_scale * np.eye(theta.size)])
    return j
