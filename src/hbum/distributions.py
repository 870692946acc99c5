"""Seeded random-sampling primitives used by the Gibbs sampler.

All draws go through a ``numpy.random.Generator`` backed by the PCG64 bit
generator. A given (seed, stream) pair therefore yields the same sample
stream on every run and platform (within one numpy version; numpy reserves
the right to improve distribution methods across feature releases).
Independent streams for parallel work are derived from the master seed with
``make_rng(seed, stream)``, which feeds the stream id into numpy's
SeedSequence spawn key.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, erfcinv

from .errors import InvalidParameterError, NumericalDegeneracyError

#: Standardized bound beyond which truncated-normal draws switch from the
#: inverse-CDF method to tail-safe Rayleigh rejection.
_TAIL_THRESHOLD = 6.0


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for (seed, stream).

    ``stream`` selects an independent substream of the master seed; distinct
    streams are statistically independent and individually reproducible.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def sample_dirichlet(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    """One draw from Dirichlet(alpha) via normalized Gamma variates.

    The output is on the probability simplex: entries >= 0 and summing to 1
    within 1e-12. All ``alpha`` entries must be strictly positive (shapes
    below 1 are supported).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.size < 1:
        raise InvalidParameterError("alpha must be a non-empty 1-D vector")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
        raise InvalidParameterError(f"Dirichlet parameters must be positive, got {alpha}")
    if alpha.size == 1:
        return np.ones(1)
    # Tiny shapes can underflow every Gamma draw to zero; retry, then give up.
    for _ in range(100):
        g = rng.standard_gamma(alpha)
        total = g.sum()
        if total > 0.0:
            return g / total
    raise NumericalDegeneracyError(f"all Gamma draws underflowed for alpha={alpha}")


def sample_inverse_gamma(rng: np.random.Generator, shape: float, scale: float) -> float:
    """One draw from the inverse-gamma distribution IG(shape, scale).

    Uses the duality 1/X ~ IG(shape, scale) for X ~ Gamma(shape, rate=scale).
    For shape > 1 the mean is scale / (shape - 1).
    """
    if not (np.isfinite(shape) and shape > 0.0):
        raise InvalidParameterError(f"inverse-gamma shape must be positive, got {shape}")
    if not (np.isfinite(scale) and scale > 0.0):
        raise InvalidParameterError(f"inverse-gamma scale must be positive, got {scale}")
    # Gamma draws can underflow to zero for very small shapes; retry.
    for _ in range(100):
        g = rng.standard_gamma(shape)
        if g > 0.0:
            return float(scale / g)
    raise NumericalDegeneracyError(f"Gamma draws underflowed for shape={shape}")


def sample_inverse_gamma_array(
    rng: np.random.Generator, shape: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Elementwise inverse-gamma draws for broadcastable shape/scale arrays."""
    shape = np.asarray(shape, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if np.any(~np.isfinite(shape)) or np.any(shape <= 0.0):
        raise InvalidParameterError("inverse-gamma shapes must be positive")
    if np.any(~np.isfinite(scale)) or np.any(scale <= 0.0):
        raise InvalidParameterError("inverse-gamma scales must be positive")
    shape, scale = np.broadcast_arrays(shape, scale)
    g = rng.standard_gamma(shape)
    for _ in range(100):
        zero = g == 0.0
        if not np.any(zero):
            return scale / g
        g = np.where(zero, rng.standard_gamma(shape), g)
    raise NumericalDegeneracyError("Gamma draws underflowed in the array sampler")


def sample_categorical_log_many(rng: np.random.Generator, log_weights: np.ndarray) -> np.ndarray:
    """Column-wise categorical draws from a (n_choices, n_sites) log-weight
    matrix; one independent Gumbel-max draw per site. Entries of -inf have
    zero probability; every site needs at least one finite entry.

    The Gumbels are built from uniforms as ``-log(-log(1 - u))``, the
    transform ``Generator.gumbel`` applies, so the call consumes exactly the
    bit-generator output ``rng.gumbel(size=log_weights.shape)`` would. The
    vectorised log may differ from the C library's by an ulp, which changes
    a draw only when two perturbed weights tie to within that ulp. The
    draws do not depend on the memory layout of ``log_weights``; a
    Fortran-ordered matrix is copied to C order first, because a per-site
    reduction over its columns is many times slower.
    """
    lw = np.ascontiguousarray(log_weights, dtype=np.float64)
    if lw.ndim != 2 or lw.shape[0] < 1:
        raise InvalidParameterError("log_weights must be a (n_choices, n_sites) matrix")
    if not np.all(lw < np.inf):  # also False for NaN
        raise InvalidParameterError("log_weights must be in [-inf, inf)")
    if not np.all(lw.max(axis=0) > -np.inf):
        raise InvalidParameterError("some site has all categorical log-weights at -inf")
    saved = rng.bit_generator.state
    g = rng.random(size=lw.shape)
    if not g.all():
        # Generator.gumbel rejects u == 0 and draws again; let it do so.
        rng.bit_generator.state = saved
        g = rng.gumbel(size=lw.shape)
        g += lw
    else:
        np.subtract(1.0, g, out=g)
        np.log(g, out=g)
        np.negative(g, out=g)
        np.log(g, out=g)
        np.subtract(lw, g, out=g)  # lw + gumbel, as a + (-b) == a - b exactly
    return _argmax_rows_first(g)


def _argmax_rows_first(g: np.ndarray) -> np.ndarray:
    """``np.argmax(g, axis=0)`` for a NaN-free matrix, by a running maximum
    over the rows; overwrites ``g[0]``. numpy's axis-0 argmax copies the
    matrix to column order first, which costs as much as the Gumbels."""
    best = g[0]
    idx = np.zeros(g.shape[1], dtype=np.intp)
    for k in range(1, g.shape[0]):
        row = g[k]
        idx = np.where(row > best, k, idx)  # strict: ties keep the first row
        np.maximum(best, row, out=best)
    return idx


def _truncnorm_tail(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Standard-normal draws on [lo, hi] with lo deep in the right tail.

    Accept-reject from a Rayleigh proposal restricted to the interval
    (Marsaglia-style); exact for arbitrarily far tails and for narrow
    intervals where inverse-CDF differences cancel.
    """
    c = 0.5 * lo * lo
    f = np.expm1(c - 0.5 * hi * hi)  # hi = inf gives f = -1
    x = c - np.log1p(rng.random(size=lo.shape) * f)
    reject = rng.random(size=lo.shape) ** 2 * x > c
    while np.any(reject):
        n_rej = int(reject.sum())
        y = c[reject] - np.log1p(rng.random(size=n_rej) * f[reject])
        ok = rng.random(size=n_rej) ** 2 * y <= c[reject]
        idx = np.flatnonzero(reject)
        x[idx[ok]] = y[ok]
        reject[idx[ok]] = False
    return np.sqrt(2.0 * x)


def _truncnorm_standard(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Standard-normal draws conditioned to [lo, hi], elementwise.

    Central intervals use the inverse CDF expressed through erfc/erfcinv
    (numerically stable upper-tail probabilities); intervals entirely beyond
    +-_TAIL_THRESHOLD standard deviations use Rayleigh rejection.
    """
    out = np.empty(lo.shape)
    right = lo > _TAIL_THRESHOLD
    left = hi < -_TAIL_THRESHOLD
    central = ~(right | left)
    if np.any(right):
        out[right] = _truncnorm_tail(rng, lo[right], hi[right])
    if np.any(left):
        out[left] = -_truncnorm_tail(rng, -hi[left], -lo[left])
    if np.any(central):
        pl = 0.5 * erfc(lo[central] / np.sqrt(2.0))  # P(X > lo)
        pu = 0.5 * erfc(hi[central] / np.sqrt(2.0))
        u = rng.random(size=int(central.sum()))
        out[central] = np.sqrt(2.0) * erfcinv(2.0 * (pl - (pl - pu) * u))
    return out


def sample_truncated_normal(
    rng: np.random.Generator,
    mean,
    sd,
    lo,
    hi,
) -> np.ndarray:
    """Elementwise Gaussian draws conditioned to [lo, hi].

    All arguments broadcast. ``sd`` must be positive and ``lo <= hi``;
    degenerate intervals (lo == hi) return the common bound.
    """
    mean, sd, lo, hi = np.broadcast_arrays(
        np.asarray(mean, dtype=np.float64),
        np.asarray(sd, dtype=np.float64),
        np.asarray(lo, dtype=np.float64),
        np.asarray(hi, dtype=np.float64),
    )
    if np.any(sd <= 0.0) or np.any(~np.isfinite(sd)):
        raise InvalidParameterError("truncated-normal sd must be positive and finite")
    if np.any(lo > hi):
        raise InvalidParameterError("truncated-normal interval must satisfy lo <= hi")
    lo_std = (lo - mean) / sd
    hi_std = (hi - mean) / sd
    draw = mean + sd * _truncnorm_standard(rng, lo_std, hi_std)
    # Guard against round-off pushing a draw infinitesimally outside.
    return np.clip(draw, lo, hi)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u - css / np.arange(1, v.size + 1) > 0.0)[-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def sample_gaussian_simplex_truncated_batch(
    rng: np.random.Generator,
    means: np.ndarray,
    var_diags: np.ndarray,
    inner_iters: int = 5,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Draws from diagonal-covariance Gaussians restricted to the probability
    simplex, one per row of ``means``.

    Row i targets N(means[i], diag(var_diags[i])) conditioned on all
    coordinates being nonnegative and summing to one. Sampling runs
    ``inner_iters`` Gibbs scans over the first R-1 coordinates; with the
    last coordinate eliminated, each free coordinate has a closed-form 1-D
    Gaussian conditional truncated to the interval that keeps the point
    inside the simplex. Used inside an outer Gibbs chain, a short inner scan
    started from the previous value (``init``) is a valid
    Metropolis-within-Gibbs move. Rows share the scan schedule, so the whole
    batch advances one coordinate at a time with vectorized truncated-normal
    draws. Entries are >= 0, and each row's last coordinate is one minus the
    sum of the others.
    """
    means = np.asarray(means, dtype=np.float64)
    var_diags = np.asarray(var_diags, dtype=np.float64)
    if means.ndim != 2 or means.shape != var_diags.shape:
        raise InvalidParameterError("means and var_diags must be matching (batch, R) arrays")
    if np.any(var_diags <= 0.0) or np.any(~np.isfinite(var_diags)):
        raise InvalidParameterError("simplex-truncated sampler needs positive finite variances")
    if not np.all(np.isfinite(means)):
        raise InvalidParameterError("simplex-truncated sampler needs finite means")
    if inner_iters < 1:
        raise InvalidParameterError("inner_iters must be >= 1")
    n_batch, n_dim = means.shape
    if n_dim == 1:
        return np.ones((n_batch, 1))

    if init is None:
        x = np.stack([project_to_simplex(m) for m in means])
    else:
        x = np.array(init, dtype=np.float64)
        if x.shape != means.shape:
            raise InvalidParameterError("init must match the shape of means")

    last = n_dim - 1
    for _ in range(inner_iters):
        for r in range(n_dim - 1):
            # Budget shared between coordinate r and the eliminated last one.
            t = x[:, r] + x[:, last]
            prec = 1.0 / var_diags[:, r] + 1.0 / var_diags[:, last]
            cond_var = 1.0 / prec
            cond_mean = cond_var * (
                means[:, r] / var_diags[:, r] + (t - means[:, last]) / var_diags[:, last]
            )
            x[:, r] = sample_truncated_normal(
                rng, cond_mean, np.sqrt(cond_var), np.zeros(n_batch), t
            )
            x[:, last] = t - x[:, r]
    x[:, last] = np.maximum(1.0 - x[:, :last].sum(axis=1), 0.0)
    return x
