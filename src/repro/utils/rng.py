"""Deterministic random-number management.

Every stochastic component in the library (graph generators, random
relabeling, workload shuffling) receives an explicit ``numpy.random
.Generator``.  Determinism is a hard requirement: the whole experimental
harness must produce bit-identical results for a given seed so that
paper-reproduction tables are stable across runs.
"""

from __future__ import annotations

import random

import numpy as np

#: Seed used by the experiment harness when the user does not supply one.
DEFAULT_SEED: int = 0xC1A0


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``Generator`` from a seed, passing generators through.

    Accepting an already-constructed generator lets internal helpers thread
    a single RNG through a pipeline without re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` statistically independent child generators.

    Used to give each simulated rank its own RNG stream so per-rank behaviour
    does not depend on rank execution order.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    ss = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def derive_seed(seed: int | None, *labels: str | int) -> int:
    """Derive a stable sub-seed from a base seed and a label path.

    This keeps experiments independent: changing the seed usage in one
    experiment does not perturb the random stream of another.

    >>> derive_seed(1, "fig9", "orkut", 4) == derive_seed(1, "fig9", "orkut", 4)
    True
    >>> derive_seed(1, "fig9") != derive_seed(1, "fig10")
    True
    """
    base = DEFAULT_SEED if seed is None else int(seed)
    mask = (1 << 64) - 1
    h = (base * 0x9E3779B97F4A7C15) & mask
    for label in labels:
        for byte in str(label).encode():
            h = ((h ^ byte) * 0x100000001B3) & mask
    return h % (1 << 63)


def randrange_draws(rng: random.Random, n: int, k: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(k)]`` in one loop (``n >= 1``).

    CPython's ``randrange(n)`` takes ``getrandbits(n.bit_length())`` and
    redraws while the value is ``>= n``.  Spelled out, the draws and the
    generator state they leave behind are the same, without the per-call
    argument checks (a victim sample is 16 draws per eviction).
    """
    if n < 1:   # randrange(n) raises too; getrandbits(0) would spin here
        raise ValueError(f"empty range for randrange_draws: n={n}")
    draw, bits = rng.getrandbits, n.bit_length()
    out = []
    for _ in range(k):
        r = draw(bits)
        while r >= n:
            r = draw(bits)
        out.append(r)
    return out
