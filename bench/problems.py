"""Seeded inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain data
(problem-file dictionaries or pencil arrays), so the same seed always gives
the same inputs and the solver under test sees only files and arrays.
"""

from __future__ import annotations

import itertools

import numpy as np

N = 2  # every generated problem has n = 2, where the exact oracle applies


def _dense_hmx(rng: np.random.Generator, order: int) -> dict:
    entries = np.round(rng.standard_normal(N**order), 4)
    return {"order": order, "dims": [N] * order, "format": "dense",
            "entries": entries.tolist()}


def random_d_problem(rng: np.random.Generator, p: int, r: int) -> dict:
    """D-mode problem ``A z^p = λ B z^r``: dense random A and an explicit random type."""
    b = np.round(rng.standard_normal((N, N**r)), 4)
    return {
        "hypermatrix": _dense_hmx(rng, p + 1),
        "partition": {"rows": [1], "cols": list(range(2, p + 2))},
        "type": {"explicit": [b.tolist()], "n": N, "r": r},
        "mode": "D",
    }


def random_markov_u_problem(rng: np.random.Generator) -> dict:
    """U-mode problem with the markov type (r = 3) and 2-3 integer nonzeros in {1, 2}."""
    positions = list(itertools.product(range(1, N + 1), repeat=4))
    count = int(rng.integers(2, 4))
    chosen = rng.choice(len(positions), size=count, replace=False)
    nz = [{"idx": list(positions[i]), "val": int(rng.integers(1, 3))}
          for i in sorted(chosen)]
    return {
        "hypermatrix": {"order": 4, "dims": [N] * 4, "format": "sparse", "nz": nz},
        "partition": {"rows": [1], "cols": [2, 3, 4]},
        "type": {"named": "markov", "n": N, "r": 3, "s": 1},
        "mode": "U",
    }


def random_dense_u_problem(rng: np.random.Generator, r: int) -> dict:
    """U-mode problem with dense random A and an explicit random type of degree r."""
    prob = random_d_problem(rng, r, r)
    prob["mode"] = "U"
    return prob


# ---------------------------------------------------------------------------
# Planted pencils
# ---------------------------------------------------------------------------


def _l_block(eps: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker L_ε block ``[I 0] − λ[0 I]`` of size ε × (ε+1): full row rank at every λ."""
    a = np.hstack([np.eye(eps), np.zeros((eps, 1))])
    b = np.hstack([np.zeros((eps, 1)), np.eye(eps)])
    return a, b


def planted_pencil(
    rng: np.random.Generator, k: int, epsilons: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wide pencil ``S·(diag(λ₁…λ_k) ⊕ L_ε…)·T`` with known real essential eigenvalues.

    The diagonal block contributes ``λᵢ − λ`` (rank drops by one at each λᵢ);
    each L_ε block keeps full row rank everywhere, so the pencil has
    ``k + Σε`` rows, ``k + Σ(ε+1)`` columns and essential eigenvalues exactly
    ``λ₁…λ_k``.  S and T are random, well-conditioned changes of basis.
    """
    lams = np.sort(rng.uniform(-2.0, 2.0, size=k))
    while k > 1 and np.min(np.diff(lams)) < 0.05:
        lams = np.sort(rng.uniform(-2.0, 2.0, size=k))
    blocks_a = [np.diag(lams)]
    blocks_b = [np.eye(k)]
    for eps in epsilons:
        a, b = _l_block(eps)
        blocks_a.append(a)
        blocks_b.append(b)
    m = sum(x.shape[0] for x in blocks_a)
    n = sum(x.shape[1] for x in blocks_a)
    core_a, core_b = np.zeros((m, n)), np.zeros((m, n))
    i = j = 0
    for a, b in zip(blocks_a, blocks_b):
        core_a[i : i + a.shape[0], j : j + a.shape[1]] = a
        core_b[i : i + b.shape[0], j : j + b.shape[1]] = b
        i += a.shape[0]
        j += a.shape[1]
    s = _well_conditioned(rng, m)
    t = _well_conditioned(rng, n)
    return s @ core_a @ t, s @ core_b @ t, lams


def _well_conditioned(rng: np.random.Generator, size: int) -> np.ndarray:
    """Identity plus a small random perturbation (condition number below about 3)."""
    return np.eye(size) + 0.3 * rng.standard_normal((size, size)) / np.sqrt(size)


def check_planted(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> None:
    """Self-check: the rank drops by one at each planted λ and nowhere on a grid.

    The grid skips points within 0.02 of a planted value.  Raises
    ``ValueError`` when the pencil does not have the planted structure.
    """
    m = a.shape[0]

    def smin_ratio(lam: float) -> float:
        s = np.linalg.svd(a - lam * b, compute_uv=False)
        return float(s[m - 1] / s[0])

    for lam in lams:
        if smin_ratio(float(lam)) > 1e-12:
            raise ValueError(f"planted pencil keeps full rank at {lam}")
    for lam in np.linspace(-3.0, 3.0, 121):
        if np.min(np.abs(lams - lam)) > 0.02 and smin_ratio(float(lam)) < 1e-6:
            raise ValueError(f"planted pencil drops rank off the plant at {lam}")
