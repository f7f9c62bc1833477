"""Independent closed-form oracles used to cross-check the library.

Everything here is pure scalar arithmetic on eigenvalues, but for one
high-precision matrix oracle in mpmath; nothing imports the package
under test, so agreement is meaningful evidence.
"""

import math

import numpy as np

try:
    import mpmath
except ImportError:  # the high-precision oracle is optional
    mpmath = None


def kappa(c: float) -> float:
    return 1.0 + math.log(c) ** 2 / 8.0


def big_k(h: float) -> float:
    return (h + 1.0) ** 2 / (4.0 * h)


def eig2_symmetric(p: float, q: float) -> tuple[float, float]:
    """Eigenvalues of [[p, q], [q, p]]: p -+ q."""
    return p - q, p + q


def wielandt_pair_values(lam_i: float, lam_j: float) -> tuple[float, float, float]:
    """For x=(v_i+v_j)/sqrt2, y=(v_i-v_j)/sqrt2 in A's eigenbasis:
    (<x,Ay>^2, <x,Ax>, <y,Ay>)."""
    cross_sq = ((lam_i - lam_j) / 2.0) ** 2
    quad = (lam_i + lam_j) / 2.0
    return cross_sq, quad, quad


def ratio_lemma(avals, bvals, m):
    mean_geo = np.sqrt(avals * bvals)
    mean_ar = 0.5 * (avals + bvals)
    return kappa(m) * np.max(mean_geo / mean_ar)


def ratio_kantorovich(avals, x, m, m_prime, M):
    lhs = float(x @ (avals * x)) * float(x @ (x / avals))
    return lhs / (big_k(M / m) / kappa(m_prime) ** 2)


def ratio_product(avals, bvals, x, m, m_prime, M):
    lhs = float(x @ (avals * x)) * float(x @ (bvals * x))
    core = float(x @ (np.sqrt(avals * bvals) * x)) ** 2
    return lhs / (big_k(M / m) / kappa(m_prime) ** 2 * core)


def ratio_holder(avals, x, m, m_prime, M):
    lhs = float(x @ (avals ** 2 * x))
    core = float(x @ (avals * x)) ** 2
    return lhs / (big_k(M / m) / kappa(m_prime) ** 2 * core)


def ratio_square_order(avals, bvals, m, m_prime, M):
    scale = big_k(M / m) / kappa(m_prime) ** 2
    return float(np.max(avals ** 2 / (scale * bvals ** 2)))


def ratio_polya_trace(avals, bvals, m, m_prime, M):
    """Trace-normalize map on diagonals: Phi(T) = mean(t) I."""
    scale = (M + m) / (2.0 * math.sqrt(M * m) * kappa(m_prime))
    lhs = math.sqrt(float(np.mean(avals)) * float(np.mean(bvals)))
    target = float(np.mean(np.sqrt(avals * bvals)))
    return lhs / (scale * target)


def ratio_isometry_mix(avals, weight, perm, m, m_prime, M):
    """Family (sqrt(w) I, sqrt(1-w) P) applied to diag(avals)."""
    mixed = weight * avals + (1.0 - weight) * avals[perm]
    mixed_inv = weight / avals + (1.0 - weight) / avals[perm]
    lhs = float(np.max(np.sqrt(mixed * mixed_inv)))
    scale = (M + m) / (2.0 * math.sqrt(M * m) * kappa(m_prime))
    return lhs / scale


def ratio_lin_squared(avals, bvals, m, m_prime, M_prime, M):
    scale = big_k(M / m) ** 2 / kappa(M_prime / m_prime) ** 2
    mean_sq = (0.5 * (avals + bvals)) ** 2
    geo_sq = avals * bvals
    return float(np.max(mean_sq / (scale * geo_sq)))


def chain_link_ratios(avals, bvals, m, m_prime, M_prime, M):
    """Ratios of the seven chain links for commuting diagonal inputs."""
    kap = kappa(M_prime / m_prime)
    mm = m * M
    half = 0.5 * (avals + bvals)
    geo = np.sqrt(avals * bvals)
    out = {
        "half_a": np.max(0.5 * avals + 0.5 * mm / avals) / (0.5 * (M + m)),
        "half_b": np.max(0.5 * bvals + 0.5 * mm / bvals) / (0.5 * (M + m)),
        "summed": np.max(half + 0.5 * mm * (1.0 / avals + 1.0 / bvals)) / (M + m),
        "geo_inverse": np.max(half + mm * kap / geo) / (M + m),
        "mapped_inverse_mean": np.max(half + mm * kap / geo) / (M + m),
        "mapped_mean_inverse": np.max(half + mm * kap / geo) / (M + m),
        "norm_product": np.max(half / geo) / ((M + m) ** 2 / (4.0 * mm) / kap),
    }
    return {k: float(v) for k, v in out.items()}


def ratio_wielandt_scalar(lam_i, lam_j, m, M):
    cross_sq, qx, qy = wielandt_pair_values(lam_i, lam_j)
    return cross_sq / (((M - m) / (M + m)) ** 2 * qx * qy)


def wielandt_triple(lam_i, lam_j):
    """Triple product for X=(v_i+v_j)/sqrt2, Y=(v_i-v_j)/sqrt2, r=1."""
    cross = (lam_i - lam_j) / 2.0
    quad = (lam_i + lam_j) / 2.0
    return cross ** 2 / quad


def ratio_wielandt_bd(lam_i, lam_j, m, M):
    quad = (lam_i + lam_j) / 2.0
    return wielandt_triple(lam_i, lam_j) / (((M - m) / (M + m)) ** 2 * quad)


def ratio_wielandt_norm(lam_i, lam_j, m, M, refined_m_prime=None):
    quad = (lam_i + lam_j) / 2.0
    lhs = wielandt_triple(lam_i, lam_j) / quad
    bound = (M - m) ** 2 / (2.0 * math.sqrt(M * m) * (M + m))
    if refined_m_prime is not None:
        bound /= kappa(refined_m_prime)
    return lhs / bound


def ratio_choi_trace_normalize(tvals):
    n = len(tvals)
    return n * n / (float(np.sum(tvals)) * float(np.sum(1.0 / tvals)))


def ratio_norm_amgm(avals, bvals):
    lhs = float(np.max(avals * bvals))
    rhs = 0.25 * float(np.max(avals + bvals)) ** 2
    return lhs / rhs


def geometric_mean_error(g, a, b, digits: int = 30):
    """||G - A#B||_F / ||A#B||_F for float matrices, with A#B in mpmath at ``digits`` digits.

    A#B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}, each square root by
    a symmetric eigendecomposition. None when mpmath is not installed.
    """
    if mpmath is None:
        return None
    ctx = mpmath.MPContext()
    ctx.dps = digits

    def root(m):
        vals, vecs = ctx.eigsy(m)
        return vecs * ctx.diag([ctx.sqrt(v) for v in vals]) * vecs.T

    root_a = root(ctx.matrix(np.asarray(a).tolist()))
    inv_root_a = ctx.inverse(root_a)
    mean = root_a * root(inv_root_a * ctx.matrix(np.asarray(b).tolist()) * inv_root_a) * root_a
    return float(ctx.mnorm(ctx.matrix(np.asarray(g).tolist()) - mean, "f") / ctx.mnorm(mean, "f"))
