"""Host-speed calibration: a fixed numpy kernel timed in the round process.

The kernel mixes the operations a sweep is made of (small GEMMs against a
wide matrix, elementwise exp/log over a (K, P) array, Gumbel draws, a
column argmax, bincount) on fixed inputs. It belongs to the benchmark, not
to the program, so a change to ``hbum`` cannot move it; its time moves only
with the host's speed at that moment.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_R, _K, _P = 9, 12, 20_000


def _kernel(rng, a, m) -> float:
    b = m @ a  # (R, R) @ (R, P)
    for _ in range(20):
        b = m @ np.tanh(b)
    logits = np.log1p(np.exp(-np.abs(b[:, None, :2000] - b[None, :, :2000]).sum(axis=1)))
    w = np.tile(logits[:, :_P // 10], (_K // _R + 1, 10))[:_K]
    for _ in range(10):
        draw = np.argmax(w + rng.gumbel(size=w.shape), axis=0)
    return float(np.bincount(draw, minlength=_K).argmax() + b.sum())


def calibration_s(repeats: int = 3) -> float:
    """Median wall time of the kernel over ``repeats`` runs (0.1 s each on a
    2-core Xeon VM)."""
    rng = np.random.default_rng(0)
    a = rng.random((_R, _P))
    m = rng.random((_R, _R))
    _kernel(rng, a, m)  # warm-up: first-touch page faults, BLAS start-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel(rng, a, m)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    print(f"{calibration_s():.6f}")
