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

import math
from statistics import NormalDist

import numpy as np

from .errors import InvalidParameterError, NumericalDegeneracyError

#: Standardized bound beyond which truncated-normal draws switch from the
#: inverse-CDF method to tail-safe Rayleigh rejection.
_TAIL_THRESHOLD = 6.0

#: Floor of the max-shifted categorical log-weights: ``exp`` of it is about
#: 1e-304, still a normal double.
_LOG_WEIGHT_FLOOR = -700.0

#: Standard-normal quantile function (Wichura's AS 241, in C) and sqrt(2).
_NORMAL_QUANTILE, _SQRT2 = NormalDist().inv_cdf, math.sqrt(2.0)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for (seed, stream).

    ``stream`` selects an independent substream of the master seed; distinct
    streams are statistically independent and individually reproducible.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def sample_dirichlet(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    """Dirichlet(alpha) draws via normalized Gamma variates: one for a (K,)
    vector, one per row of an (n, K) matrix, drawn in row order as n (K,)
    calls would draw them. Entries are >= 0 and sum to 1 within 1e-12;
    shapes must be positive (below 1 is fine). A row whose Gamma draws all
    underflow is drawn again; a K = 1 draw is 1 and uses no variates.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] < 1:
        raise InvalidParameterError("alpha must be a non-empty (K,) vector or (n, K) matrix")
    if not (alpha.min(initial=np.inf) > 0.0 and alpha.max(initial=0.0) < np.inf):  # NaN: False
        raise InvalidParameterError(f"Dirichlet parameters must be positive, got {alpha}")
    if alpha.shape[-1] == 1:
        return np.ones(alpha.shape)
    rows = alpha.reshape(-1, alpha.shape[-1])
    g = rng.standard_gamma(rows)
    for _ in range(100):
        totals = g.sum(axis=1, keepdims=True)
        bad = totals[:, 0] <= 0.0
        if not bad.any():
            return (g / totals).reshape(alpha.shape)
        g[bad] = rng.standard_gamma(rows[bad])
    raise NumericalDegeneracyError(f"all Gamma draws underflowed for alpha={rows[bad][0]}")


def sample_inverse_gamma(rng: np.random.Generator, shape: float, scale: float) -> float:
    """One draw of IG(shape, scale) by :func:`sample_inverse_gamma_array`."""
    return float(sample_inverse_gamma_array(rng, shape, scale))


def sample_inverse_gamma_array(
    rng: np.random.Generator, shape: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Elementwise inverse-gamma draws for broadcastable shape/scale arrays:
    1/X ~ IG(shape, scale) for X ~ Gamma(shape, rate=scale), with the mean
    scale / (shape - 1) for shape > 1. A Gamma draw that underflows to zero
    (very small shapes) is drawn again."""
    shape = np.asarray(shape, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if not (shape.min(initial=np.inf) > 0.0 and shape.max(initial=0.0) < np.inf):  # NaN: False
        raise InvalidParameterError("inverse-gamma shapes must be positive")
    if not (scale.min(initial=np.inf) > 0.0 and scale.max(initial=0.0) < np.inf):
        raise InvalidParameterError("inverse-gamma scales must be positive")
    size = np.broadcast_shapes(shape.shape, scale.shape)
    g = rng.standard_gamma(shape, size=size)
    for _ in range(100):
        zero = g == 0.0
        if not np.any(zero):
            return scale / g
        g = np.where(zero, rng.standard_gamma(shape, size=size), g)
    raise NumericalDegeneracyError("Gamma draws underflowed in the array sampler")


def sample_categorical_log_many(
    rng: np.random.Generator, log_weights: np.ndarray, *,
    overwrite: bool = False, order: np.ndarray | None = None,
) -> np.ndarray:
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

    With ``overwrite`` a C-ordered float64 ``log_weights`` is scratch for
    the weights, written only after every check. ``order``, a permutation of
    the sites, gives the i-th of one ``rng.random(n_sites)`` to site ``order[i]``.
    """
    lw = np.ascontiguousarray(log_weights, dtype=np.float64)
    if lw.ndim != 2 or lw.shape[0] < 1:
        raise InvalidParameterError("log_weights must be a (n_choices, n_sites) matrix")
    peak = lw.max(axis=0)  # NaN at a site holding NaN, +inf at one holding +inf
    if not np.isfinite(peak).all():
        if not np.all(peak < np.inf):  # also False for NaN
            raise InvalidParameterError("log_weights must be in [-inf, inf)")
        raise InvalidParameterError("some site has all categorical log-weights at -inf")
    neg_inf = lw == -np.inf if lw.min(initial=0.0) == -np.inf else None
    w = lw if overwrite else np.empty_like(lw)
    with np.errstate(over="ignore"):  # a finite difference past -DBL_MAX is -inf
        np.subtract(lw, peak, out=w)
    np.maximum(w, _LOG_WEIGHT_FLOOR, out=w)
    np.exp(w, out=w)
    if neg_inf is not None:
        np.copyto(w, 0.0, where=neg_inf)
    n_choices, n_sites = w.shape
    for k in range(1, n_choices):
        np.add(w[k - 1], w[k], out=w[k])
    u = rng.random(size=n_sites) if order is None else np.empty(n_sites)
    if order is not None:
        u[order] = rng.random(size=n_sites)
    u *= w[-1]
    label = np.zeros(n_sites, dtype=np.min_scalar_type(n_choices - 1))
    for k in range(n_choices - 1):
        label += np.less_equal(w[k], u).view(np.uint8)
    return label.astype(np.intp)


def _truncnorm_tail(rng: np.random.Generator, lo: float, hi: float) -> float:
    """One standard-normal draw on [lo, hi] with lo deep in the right tail.

    Accept-reject from a Rayleigh proposal restricted to the interval
    (Marsaglia-style), two uniforms an attempt; exact for arbitrarily far
    tails and for narrow intervals where inverse-CDF differences cancel.
    """
    c = 0.5 * lo * lo
    f = math.expm1(c - 0.5 * hi * hi)  # hi = inf gives f = -1
    while True:
        u, v = rng.random(2).tolist()
        x = c - math.log1p(u * f)
        if v * v * x <= c:
            return math.sqrt(2.0 * x)


def _truncnorm_central(lo: float, hi: float, u: float) -> float:
    """The inverse-CDF standard-normal draw on [lo, hi] for the uniform ``u``,
    from numerically stable upper-tail probabilities."""
    pl = 0.5 * math.erfc(lo / _SQRT2)  # P(X > lo)
    q = pl - (pl - 0.5 * math.erfc(hi / _SQRT2)) * u
    return math.inf if q <= 0.0 else -math.inf if q >= 1.0 else -_NORMAL_QUANTILE(q)


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
    inner_iters: int,
    init: np.ndarray,
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
    Metropolis-within-Gibbs move. The uniforms are drawn first, as scans
    over all rows at once would use them; then each row runs its scans in
    a scalar loop over its floats. Entries are >= 0, and each row's last
    coordinate is one minus the sum of the others.
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

    x = np.array(init, dtype=np.float64)
    if x.shape != means.shape or not np.isfinite(x).all():
        raise InvalidParameterError("init must be finite and match the shape of means")

    # Row i's parts of coordinate r's 1-D conditional that stay fixed through
    # the scans: its variance, its sd and means / var_diags.
    last = n_dim - 1
    with np.errstate(over="ignore"):  # a subnormal variance gives sd 0, rejected below
        inv_var = 1.0 / var_diags
    cond_var = 1.0 / (inv_var[:, :last] + inv_var[:, last:])
    sd = np.sqrt(cond_var)
    if not (np.all(sd > 0.0) and np.all(np.isfinite(sd))):
        raise InvalidParameterError("truncated-normal sd must be positive and finite")
    # One uniform a draw, in the order of scans over all rows at once: scan,
    # coordinate, row. A draw past the tail threshold leaves its uniform
    # unused and takes its own from ``rng`` after these.
    uniforms = rng.random((inner_iters * last, n_batch)).T.tolist()
    rows = zip(x.tolist(), uniforms, cond_var.tolist(), sd.tolist(),
               (means[:, :last] / var_diags[:, :last]).tolist(),
               means[:, last].tolist(), var_diags[:, last].tolist())
    scan, out = list(range(last)) * inner_iters, []
    # Python floats make each IEEE operation numpy would make, in its order.
    for x_i, u_i, var_i, sd_i, fixed_i, mean_last, var_last in rows:
        x_last = x_i[last]
        for r, u in zip(scan, u_i):
            t = x_i[r] + x_last  # budget shared by coordinate r and the last one
            if t < 0.0:  # an init off the simplex: x >= 0 from its first draw on
                raise InvalidParameterError("truncated-normal interval must satisfy lo <= hi")
            mean, s = var_i[r] * (fixed_i[r] + (t - mean_last) / var_last), sd_i[r]
            lo, hi = (0.0 - mean) / s, (t - mean) / s
            if lo > _TAIL_THRESHOLD:
                draw = _truncnorm_tail(rng, lo, hi)
            elif hi < -_TAIL_THRESHOLD:
                draw = -_truncnorm_tail(rng, -hi, -lo)
            else:
                draw = _truncnorm_central(lo, hi, u)
            # Guard against round-off pushing a draw infinitesimally outside,
            # comparing as np.clip does: a NaN passes and -0.0 becomes 0.0.
            v = draw * s + mean
            x_i[r] = v if v != v else min(t, max(0.0, v))
            x_last = t - x_i[r]
        out.append(x_i)
    x = np.array(out)
    x[:, last] = np.maximum(1.0 - x[:, :last].sum(axis=1), 0.0)
    return x
