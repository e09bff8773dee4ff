"""Independent checks of solver output, written from the problem-file definitions.

Nothing here calls the package under test.  It provides:

* the problem's two sides, rebuilt from the file: ``lhs(x) = A·x`` with A
  the flattened hypermatrix, and ``rhs(x) = ⊗_j B_j·x`` from the type map;
* the exact D-eigenvector oracle for n = 2, s = 1: with ``z = (1, t)`` the
  2×2 minor ``(A z^p)₁(B z^q)₂ − (A z^p)₂(B z^q)₁`` is a polynomial in t
  whose real roots, plus ``z = (0, 1)``, give every real diagonal eigenvector.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

#: Relative tolerance for matching a reported solution to an oracle solution.
MATCH_TOL = 1e-6

#: Relative residual above which a reported witness fails the independent check.
CHECK_TOL = 1e-6


def _hmx_array(d: dict) -> np.ndarray:
    dims = tuple(int(n) for n in d["dims"])
    if d["format"] == "dense":
        return np.asarray(d["entries"], dtype=float).reshape(dims)
    arr = np.zeros(dims)
    for rec in d["nz"]:
        arr[tuple(int(i) - 1 for i in rec["idx"])] = float(rec["val"])
    return arr


def _kron_power(z: np.ndarray, k: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(k):
        out = np.kron(out, z)
    return out


def _markov_matrix(n: int, r: int) -> np.ndarray:
    """The markov factor: multinomial weights on one representative column per term."""
    b = np.zeros((n, n**r))
    for j in itertools.combinations_with_replacement(range(n), r - 1):
        weight = math.factorial(r - 1)
        for v in set(j):
            weight //= math.factorial(j.count(v))
        for i in range(n):
            cols = tuple(sorted(j + (i,))) if i >= j[0] else j + (i,)
            b[i, int(np.ravel_multi_index(cols, (n,) * r))] += weight
    return b


def _inner_product_matrix(n: int) -> np.ndarray:
    b = np.zeros((n, n**3))
    for i in range(n):
        for j in range(n):
            b[i, int(np.ravel_multi_index(tuple(sorted((i, j, j))), (n,) * 3))] = 1.0
    return b


def _h_matrix(n: int, r: int) -> np.ndarray:
    b = np.zeros((n, n**r))
    for k in range(n):
        b[k, int(np.ravel_multi_index((k,) * r, (n,) * r))] = 1.0
    return b


@dataclass(frozen=True)
class Problem:
    """A problem rebuilt from its file: ``A·x = λ·(B_1 y ⊗ … ⊗ B_s y)``.

    In D mode ``x = z^{⊗p}`` and ``y = z^{⊗r}``; in U mode ``x = y`` is the
    Kronecker product of the components.  ``factors`` is empty for the
    identity-power type, whose right-hand side is ``z^{⊗s}``.
    """

    a: np.ndarray
    factors: tuple[np.ndarray, ...]
    n: int
    r: int
    s: int
    mode: str

    @property
    def p(self) -> int:
        return round(math.log(self.a.shape[1], self.n))

    @property
    def q(self) -> int:
        return self.s if not self.factors else self.r * self.s

    @property
    def scale(self) -> float:
        return max(1.0, float(np.linalg.norm(self.a))
                   + sum(float(np.linalg.norm(b)) for b in self.factors))

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """``⊗_j B_j x`` for an r-fold input x (or ``x^{⊗s}`` for identity-power)."""
        if not self.factors:
            return _kron_power(x, self.s)
        out = np.ones(1)
        for b in self.factors:
            out = np.kron(out, b @ x)
        return out

    def sides_d(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lhs = self.a @ _kron_power(z, self.p)
        rhs = self.rhs(z) if not self.factors else self.rhs(_kron_power(z, self.r))
        return lhs, rhs

    def sides_u(self, comps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        x = np.ones(1)
        for c in comps:
            x = np.kron(x, c)
        return self.a @ x, self.rhs(x)


def problem_from_file(d: dict) -> Problem:
    arr = _hmx_array(d["hypermatrix"])
    rows = [int(i) - 1 for i in d["partition"]["rows"]]
    cols = [int(i) - 1 for i in d["partition"]["cols"]]
    nrows = math.prod(arr.shape[i] for i in rows)
    a = arr.transpose(rows + cols).reshape(nrows, -1)
    td = d["type"]
    if "named" in td:
        name, n, r, s = td["named"], int(td["n"]), int(td["r"]), int(td.get("s", 1))
        if name == "identity-power":
            factors: tuple[np.ndarray, ...] = ()
        else:
            b = {"H": lambda: _h_matrix(n, r), "markov": lambda: _markov_matrix(n, r),
                 "inner-product": lambda: _inner_product_matrix(n)}[name]()
            factors = (b,) * s
    else:
        factors = tuple(np.asarray(b, dtype=float) for b in td["explicit"])
        n = int(td.get("n", factors[0].shape[0]))
        r = int(td.get("r") or round(math.log(factors[0].shape[1], n)))
        s = len(factors)
    return Problem(a=a, factors=factors, n=n, r=r, s=s, mode=str(d["mode"]))


# ---------------------------------------------------------------------------
# Witness check
# ---------------------------------------------------------------------------


def check_witness(prob: Problem, w: dict) -> str | None:
    """Reason a reported witness fails ``A x − λ·rhs(x) = 0``, or None when it holds."""
    comps = [np.asarray(c, dtype=float) for c in w["components"]]
    if not all(np.all(np.isfinite(c)) for c in comps):
        return "non-finite component"
    for c in comps:
        # Monic: entries before the leading 1 vanish (to 1e-8, as the solver requires).
        lead = np.flatnonzero(np.abs(c) > 1e-8)
        if lead.size == 0 or abs(c[lead[0]] - 1.0) > 1e-8:
            return "component is not monic"
    if prob.mode == "D":
        if any(float(np.max(np.abs(c - comps[0]))) > 1e-9 for c in comps[1:]):
            return "D witness with unequal components"
        lhs, rhs = prob.sides_d(comps[0])
    else:
        lhs, rhs = prob.sides_u(comps)
    size = prob.scale * max(1.0, float(np.linalg.norm(np.concatenate(comps)))) ** max(prob.p, prob.q)
    residual = float(np.linalg.norm(lhs - float(w["lambda"]) * rhs))
    if residual > CHECK_TOL * size:
        return f"residual {residual:.3e} of the original equation"
    return None


# ---------------------------------------------------------------------------
# The exact n = 2 oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSolution:
    """A real diagonal eigenvector ``z`` (monic) with its λ; ``lam is None`` means any λ."""

    z: np.ndarray
    lam: float | None


def _poly_rows(m: np.ndarray, power: int) -> np.ndarray:
    """Rows of ``M·(1, t)^{⊗power}`` as ascending coefficient arrays in t."""
    out = np.zeros((m.shape[0], power + 1))
    for col in range(2**power):
        out[:, bin(col).count("1")] += m[:, col]
    return out


def _rhs_polys(prob: Problem) -> np.ndarray:
    """Rows of ``rhs((1, t)^{⊗r})`` as coefficient arrays (s = 1)."""
    b = prob.factors[0] if prob.factors else np.eye(2)
    return _poly_rows(b, prob.r if prob.factors else 1)


def d_oracle(prob: Problem) -> list[OracleSolution]:
    """Every real diagonal eigenvector of an n = 2, s = 1 problem."""
    if prob.n != 2 or prob.s != 1:
        raise ValueError("the exact oracle covers n = 2, s = 1 only")
    pa = _poly_rows(prob.a, prob.p)
    pb = _rhs_polys(prob)
    minor = np.polynomial.polynomial.polysub(
        np.polynomial.polynomial.polymul(pa[0], pb[1]),
        np.polynomial.polynomial.polymul(pa[1], pb[0]),
    )
    minor = np.trim_zeros(np.asarray(minor, dtype=float), "b")
    if minor.size == 0 or float(np.max(np.abs(minor))) <= 1e-14 * prob.scale:
        raise ValueError("every z is an eigenvector; the oracle needs isolated solutions")
    cands = [np.array([0.0, 1.0])]
    deriv = np.polynomial.polynomial.polyder(minor)
    for t in np.roots(minor[::-1]) if minor.size > 1 else []:
        if abs(t.imag) <= 1e-6 * max(1.0, abs(t)):
            cands.append(np.array([1.0, _newton_polish(minor, deriv, float(t.real))]))
    out: list[OracleSolution] = []
    for z in cands:
        sol = _solution_at(prob, z)
        if sol is not None and not any(
            float(np.max(np.abs(sol.z - prev.z))) <= 1e-7 * max(1.0, float(np.max(np.abs(prev.z))))
            for prev in out
        ):
            out.append(sol)
    return out


def _newton_polish(poly: np.ndarray, deriv: np.ndarray, t: float) -> float:
    """A few Newton steps on a real root; kept only while they shrink |poly(t)|."""
    value = abs(np.polynomial.polynomial.polyval(t, poly))
    for _ in range(3):
        slope = np.polynomial.polynomial.polyval(t, deriv)
        if slope == 0.0:
            break
        step = t - np.polynomial.polynomial.polyval(t, poly) / slope
        new_value = abs(np.polynomial.polynomial.polyval(step, poly))
        if not new_value < value:
            break
        t, value = step, new_value
    return float(t)


def _solution_at(prob: Problem, z: np.ndarray) -> OracleSolution | None:
    """The eigenpair at direction z, or None when z is not an eigenvector."""
    lhs, rhs = prob.sides_d(z)
    size = prob.scale * max(1.0, float(np.max(np.abs(z)))) ** max(prob.p, prob.q)
    if float(np.linalg.norm(rhs)) <= 1e-9 * size:
        return OracleSolution(z, None) if float(np.linalg.norm(lhs)) <= 1e-9 * size else None
    lam = float(rhs @ lhs / (rhs @ rhs))
    if float(np.linalg.norm(lhs - lam * rhs)) > 1e-9 * size:
        return None
    return OracleSolution(z, lam)


def close(a: np.ndarray, b: np.ndarray, tol: float = MATCH_TOL) -> bool:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol * max(
        1.0, float(np.max(np.abs(b))))


def lam_close(a: float, b: float, tol: float = MATCH_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def d_witness_matches(sol: OracleSolution, w: dict) -> bool:
    z = np.asarray(w["components"][0], dtype=float)
    if not close(z, sol.z):
        return False
    if sol.lam is None:
        return True
    return lam_close(float(w["lambda"]), sol.lam)


def u_covers(sol: OracleSolution, witnesses: list[dict]) -> bool:
    """Whether a U solve reports the diagonal eigenvector ``z⊗…⊗z`` or a family line through it.

    A family is a set of witnesses sharing one tag; they differ in one
    component, and the line through two of them is the free direction.
    """
    for w in witnesses:
        if all(close(c, sol.z) for c in w["components"]) and (
            sol.lam is None or lam_close(float(w["lambda"]), sol.lam)
        ):
            return True
    families: dict[str, list[dict]] = {}
    for w in witnesses:
        if w["family"] and "valid for every lambda" not in w["family"]:
            families.setdefault(w["family"], []).append(w)
    for members in families.values():
        if len(members) < 2 or sol.lam is None:
            continue
        if not lam_close(float(members[0]["lambda"]), sol.lam):
            continue
        c0 = [np.asarray(c, dtype=float) for c in members[0]["components"]]
        c1 = [np.asarray(c, dtype=float) for c in members[1]["components"]]
        moving = [j for j in range(len(c0)) if not close(c0[j], c1[j], 1e-9)]
        if len(moving) != 1:
            continue
        j = moving[0]
        if not all(close(c0[k], sol.z) for k in range(len(c0)) if k != j):
            continue
        d = c1[j] - c0[j]
        off = sol.z - c0[j]
        along = float(off @ d) / float(d @ d)
        if close(c0[j] + along * d, sol.z):
            return True
    return False


def self_check(ex_6_3_1_path) -> None:
    """The oracle must return exactly (0,1), (1,0) and (1,1) on ``ex_6_3_1``."""
    with open(ex_6_3_1_path, encoding="utf-8") as fh:
        prob = problem_from_file(json.load(fh))
    got = sorted(tuple(float(v) for v in s.z) for s in d_oracle(prob))
    if got != [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]:
        raise RuntimeError(f"oracle self-check failed on ex_6_3_1: {got}")
