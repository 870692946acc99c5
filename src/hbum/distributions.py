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

#: Floor of the max-shifted categorical log-weights: ``exp`` of it is about
#: 1e-304, still a normal double.
_LOG_WEIGHT_FLOOR = -700.0


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


def _checked_log_weights(log_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C-ordered float64 copy (or view) of a (n_choices, n_sites) log-weight
    matrix and its per-site maximum, or ``InvalidParameterError``. The
    maximum is NaN for a site holding NaN and +inf for one holding +inf, so
    one reduction checks every entry."""
    lw = np.ascontiguousarray(log_weights, dtype=np.float64)
    if lw.ndim != 2 or lw.shape[0] < 1:
        raise InvalidParameterError("log_weights must be a (n_choices, n_sites) matrix")
    peak = lw.max(axis=0)
    if not np.all(peak < np.inf):  # also False for NaN
        raise InvalidParameterError("log_weights must be in [-inf, inf)")
    if not np.all(peak > -np.inf):
        raise InvalidParameterError("some site has all categorical log-weights at -inf")
    return lw, peak


def sample_categorical_log_many(rng: np.random.Generator, log_weights: np.ndarray) -> np.ndarray:
    """Column-wise categorical draws from a (n_choices, n_sites) log-weight
    matrix, by inverse CDF: one uniform per site against the cumulative
    weights. Entries of -inf have zero probability and are never drawn;
    every site needs at least one finite entry.

    Each site's weights are ``exp(lw - max)`` with the shifted log-weights
    floored at ``_LOG_WEIGHT_FLOOR`` (``np.exp`` is many times slower on
    -inf inputs and subnormal results), so a finite entry more than 700
    below its site's maximum keeps a weight of about 1e-304 instead of its
    own; -inf entries get exactly zero. The cumulative sums run one row add
    at a time (the order ``np.cumsum(axis=0)`` uses) and the label is the
    first row whose sum exceeds ``u * total``, ``u`` in [0, 1): a
    zero-weight row never exceeds it, also for ``u == 0``. The draws do not
    depend on the memory layout of ``log_weights``.
    """
    lw, peak = _checked_log_weights(log_weights)
    with np.errstate(over="ignore"):  # a finite difference past -DBL_MAX is -inf
        w = lw - peak
    np.maximum(w, _LOG_WEIGHT_FLOOR, out=w)
    np.exp(w, out=w)
    if lw.min(initial=0.0) == -np.inf:
        np.copyto(w, 0.0, where=lw == -np.inf)
    for k in range(1, w.shape[0]):
        np.add(w[k - 1], w[k], out=w[k])
    u = rng.random(size=w.shape[1])
    u *= w[-1]
    label = np.zeros(w.shape[1], dtype=np.intp)
    for k in range(w.shape[0] - 1):
        label += w[k] <= u
    return label


def sample_categorical_gumbel(rng: np.random.Generator, log_weights: np.ndarray) -> np.ndarray:
    """Column-wise categorical draws from a (n_choices, n_sites) log-weight
    matrix; one independent Gumbel-max draw per site. Entries of -inf have
    zero probability; every site needs at least one finite entry. Scene
    generation draws its Potts maps with it, so scenes stay as they were
    when the chain moved to :func:`sample_categorical_log_many`.

    The Gumbels are built from uniforms as ``-log(-log(1 - u))``, the
    transform ``Generator.gumbel`` applies, so the call consumes exactly the
    bit-generator output ``rng.gumbel(size=log_weights.shape)`` would. The
    vectorised log may differ from the C library's by an ulp, which changes
    a draw only when two perturbed weights tie to within that ulp. The
    draws do not depend on the memory layout of ``log_weights``; a
    Fortran-ordered matrix is copied to C order first, because a per-site
    reduction over its columns is many times slower.
    """
    lw = _checked_log_weights(log_weights)[0]
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
    +-_TAIL_THRESHOLD standard deviations use Rayleigh rejection. When every
    interval is central no mask gathers are made; the draws are the same.
    """
    right = lo > _TAIL_THRESHOLD
    left = hi < -_TAIL_THRESHOLD
    if not (right | left).any():
        return _truncnorm_central(rng, lo, hi)
    out = np.empty(lo.shape)
    central = ~(right | left)
    if np.any(right):
        out[right] = _truncnorm_tail(rng, lo[right], hi[right])
    if np.any(left):
        out[left] = -_truncnorm_tail(rng, -hi[left], -lo[left])
    if np.any(central):
        out[central] = _truncnorm_central(rng, lo[central], hi[central])
    return out


def _truncnorm_central(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Inverse-CDF standard-normal draws on [lo, hi], one uniform each."""
    pl = 0.5 * erfc(lo / np.sqrt(2.0))  # P(X > lo)
    pu = 0.5 * erfc(hi / np.sqrt(2.0))
    u = rng.random(size=lo.shape)
    return np.sqrt(2.0) * erfcinv(2.0 * (pl - (pl - pu) * u))


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

    # Per free coordinate r: the 1-D conditional's variance and the part of
    # its mean that does not move during the scan.
    last = n_dim - 1
    with np.errstate(over="ignore"):  # a subnormal variance gives sd 0, rejected below
        inv_var = 1.0 / var_diags
    cond_var = 1.0 / (inv_var[:, :last] + inv_var[:, last:])
    sd = np.sqrt(cond_var)
    if not (np.all(sd > 0.0) and np.all(np.isfinite(sd))):
        raise InvalidParameterError("truncated-normal sd must be positive and finite")
    # Columns as contiguous rows: x[r] is coordinate r of every batch row.
    fixed = (means[:, :last] / var_diags[:, :last]).T.copy()
    cond_var, sd = cond_var.T.copy(), sd.T.copy()
    mean_last, var_last = means[:, last].copy(), var_diags[:, last].copy()
    x = x.T.copy()
    for it in range(inner_iters):
        for r in range(last):
            # Budget shared between coordinate r and the eliminated last one.
            t = x[r] + x[last]
            if it == 0 and (t < 0.0).any():  # x >= 0 from the first scan on
                raise InvalidParameterError("truncated-normal interval must satisfy lo <= hi")
            cond_mean = cond_var[r] * (fixed[r] + (t - mean_last) / var_last)
            draw = _truncnorm_standard(rng, (0.0 - cond_mean) / sd[r], (t - cond_mean) / sd[r])
            draw *= sd[r]
            draw += cond_mean
            # Guard against round-off pushing a draw infinitesimally outside.
            x[r] = np.clip(draw, 0.0, t)
            x[last] = t - x[r]
    x = x.T.copy()
    x[:, last] = np.maximum(1.0 - x[:, :last].sum(axis=1), 0.0)
    return x
