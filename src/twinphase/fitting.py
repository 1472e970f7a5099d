"""The edge fit and its root without scipy.optimize, whose import loads
scipy.linalg and scipy.sparse: ``curve_fit`` runs the path of scipy
1.17.1's ``curve_fit(f, x, y, p0, bounds=..., maxfev=...)``, the
trust-region reflective ``least_squares`` on bounds with the exact
solver, linear loss and a forward-difference Jacobian, then the
Moore-Penrose covariance; ``brentq`` is scipy's ``brentq(f, a, b)``.
Operands come in scipy's order (``x_scale`` 1's products with one are
left out, which keeps every bit), and each reachable error is scipy's.
"""

import warnings

import numpy as np
from numpy.linalg import LinAlgError, norm

from .runtime import scipy_function

EPS = np.finfo(float).eps
TOL = 1e-8  # least_squares' ftol, xtol and gtol


class OptimizeWarning(UserWarning):
    """scipy.optimize.OptimizeWarning: the covariance could not be estimated."""


def curve_fit(f, xdata, ydata, p0, bounds, maxfev):
    """``(popt, pcov)`` of ``scipy.optimize.curve_fit(f, xdata, ydata,
    p0=p0, bounds=bounds, maxfev=maxfev)``, for an array ``xdata`` and
    bounds of one entry per parameter, finite on at least one."""
    p0 = np.atleast_1d(p0)
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    ydata = np.asarray_chkfinite(ydata, float)
    xdata = np.asarray_chkfinite(xdata, float)

    def fun(params):
        return f(xdata, *params) - ydata

    x0 = p0.astype(float)
    if np.any(lb >= ub):
        raise ValueError("Each lower bound must be strictly less than each upper bound.")
    if not np.all((x0 >= lb) & (x0 <= ub)):
        raise ValueError("Initial guess is outside of provided bounds")
    x0 = make_strictly_feasible(x0, lb, ub, rstep=1e-10)
    f0 = fun(x0)
    J0 = _jacobian(fun, x0, f0, lb, ub)
    if not np.all(np.isfinite(f0)):
        raise ValueError("Residuals are not finite in the initial point.")
    x, cost, fvec, jac = _trf_bounds(fun, x0, f0, J0, lb, ub, maxfev)

    _, s, VT = _svd(jac)
    threshold = np.finfo(float).eps * max(jac.shape) * s[0]
    s = s[s > threshold]
    VT = VT[:s.size]
    pcov = np.dot(VT.T / s**2, VT)
    if np.isnan(pcov).any() or len(fvec) <= p0.size:
        pcov = np.full((len(x), len(x)), np.inf)
        warnings.warn("Covariance of the parameters could not be estimated",
                      category=OptimizeWarning, stacklevel=2)
    else:
        pcov = pcov * (2 * cost / (len(fvec) - p0.size))
    return x, pcov


def brentq(f, a, b):
    """``scipy.optimize.brentq(f, a, b)``: a root of ``f`` in [a, b]
    (xtol 2e-12, rtol 4 eps, at most 100 iterations); ValueError when
    ``f`` returns NaN or has one sign at both ends, RuntimeError when it
    does not converge."""
    def f_raise(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    return scipy_function("_brentq")(f_raise, a, b, 2e-12, 4 * EPS, 100, (), False, True)


def _svd(a):
    """``scipy.linalg.svd(a, full_matrices=False)``: LAPACK's ``dgesdd``
    after its workspace query; ``a`` is not overwritten."""
    a = np.asarray_chkfinite(a)
    work, _ = scipy_function("dgesdd_lwork")(*a.shape, compute_uv=True, full_matrices=False)
    u, s, v, info = scipy_function("dgesdd")(a, compute_uv=True, lwork=int(work.real),
                                             full_matrices=False, overwrite_a=False)
    if info > 0:
        raise LinAlgError("SVD did not converge")
    return u, s, v


def _jacobian(fun, x0, f0, lb, ub):
    """``approx_derivative(fun, x0, '2-point', f0=f0, bounds=(lb, ub))``:
    forward differences, stepped backward, or shortened, where the step
    would leave the bounds; the transpose of a C-ordered array, as scipy's,
    so that the products with it sum in scipy's order."""
    h = EPS**0.5 * ((x0 >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x0))
    lower_dist, upper_dist = x0 - lb, ub - x0
    violated = ((x0 + h) < lb) | ((x0 + h) > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h_adjusted = h.copy()
    h_adjusted[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h_adjusted[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h_adjusted[backward] = -lower_dist[backward]
    J_transposed = np.empty((x0.size, f0.size))
    for i, h_i in enumerate(h_adjusted):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h_i
        J_transposed[i] = (fun(x1) - f0) / ((x0[i] + h_i) - x0[i])
    return J_transposed.T


def _trf_bounds(fun, x, f, J, lb, ub, max_nfev):
    """scipy's ``trf_bounds`` from ``x``, its residuals ``f`` and Jacobian
    ``J``: the solution, half its squared residual norm, its residuals
    and its Jacobian; RuntimeError when ``max_nfev`` runs out first."""
    nfev, (m, n) = 1, J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, _ = CL_scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    converged = False
    while True:
        v, dv = CL_scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if converged or g_norm < TOL:
            return x, cost, f, J
        if nfev == max_nfev:
            raise RuntimeError("Optimal parameters not found: "
                               "The maximum number of function evaluations is exceeded.")
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]  # a view, which the SVD does not overwrite
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # the step back from the bounds
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            step, step_h, predicted_reduction = select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, lb, ub, theta)
            x_new = make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            else:
                ratio = 1 if predicted_reduction == actual_reduction == 0 else 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = Delta * 2.0
            converged = (actual_reduction < TOL * cost and ratio > 0.25
                         or norm(step) < TOL * (TOL + norm(x)))  # ftol or xtol
            if converged:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)


# scipy.optimize._lsq's helpers, as the bounded exact path calls them.

def solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha, rtol=0.01, max_iter=10):
    """The step of the trust-region subproblem and its alpha (More's method)."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    alpha = initial_alpha
    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < rtol * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)
    return p, alpha


def select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step cut short of the first bound it
    hits, its reflection off that bound and the Cauchy step: (step, its
    hat-space step, predicted reduction)."""
    def value(s):
        a, b = build_quadratic_1d(J_h, g_h, s, diag_h)
        return a + b

    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -value(p_h)
    p_stride, hits = step_size_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # The larger t at which ||p_h + r_h t|| = Delta.
    a = np.dot(r_h, r_h)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(p_h, r_h)
    c = np.dot(p_h, p_h) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    q = -(b + np.copysign(np.sqrt(b*b - a*c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = step_size_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    r_value = np.inf
    if r_stride_l <= r_stride_u:
        a, b, c = build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    p *= theta
    p_h *= theta
    p_value = value(p_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = step_size_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    ag_stride, ag_value = minimize_quadratic_1d(*build_quadratic_1d(J_h, g_h, ag_h, diag_h), 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def build_quadratic_1d(J, g, s, diag, s0=None):
    """(a, b[, c]) of the quadratic model ``a t**2 + b t + c`` along ``s``
    (from ``s0``)."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def minimize_quadratic_1d(a, b, lb, ub, c=0):
    t = [lb, ub]
    if a != 0 and lb < -0.5 * b / a < ub:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def step_size_to_bound(x, s, lb, ub):
    """The stride along ``s`` to the nearest bound, and where it is hit,
    the sign of ``s``."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def make_strictly_feasible(x, lb, ub, rstep):
    """``x`` moved off each bound it is within ``rstep`` (relative) of, by
    ``rstep``, or at ``rstep`` 0 off each bound it is on or past, to the
    next float inside; to the middle where that overshoots."""
    if rstep == 0:
        lower, upper = x <= lb, x >= ub
    else:
        lower_dist, upper_dist = x - lb, ub - x
        lower = np.isfinite(lb) & (lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb))))
        upper = np.isfinite(ub) & (upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub))))
    lower &= ~upper  # scipy marks the upper bound last
    x_new = x.copy()
    if rstep == 0:
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def CL_scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling: the distance to the bound that the
    anti-gradient points at (1 where none), and the sign of its derivative."""
    upper, lower = (g < 0) & np.isfinite(ub), (g > 0) & np.isfinite(lb)
    v = np.where(lower, x - lb, np.where(upper, ub - x, 1.0))
    return v, lower - upper.astype(float)
