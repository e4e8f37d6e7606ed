"""Process models: sparse polynomial maps, SDE and jump-process specs.

Drift and diffusion coefficients are polynomials in the state, stored as
sparse (coefficient, exponent-vector) term lists.  Terms are canonicalized
on construction (duplicates merged, zero coefficients dropped, fixed term
order) so structurally equal polynomials compare equal term-by-term.

A Markov jump process with stoichiometry S and rate vector g(n) maps to
its diffusion approximation

    drift(x) = S g(x),        diffusion(x) = S diag(g(x)) S^T,

both expanded symbolically into polynomial form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import finite_array


@dataclass(frozen=True, eq=False)
class PolynomialMap:
    """Polynomial in d variables as a canonical sparse term list."""

    dim: int
    coeffs: np.ndarray   # (n_terms,)
    expo: np.ndarray     # (n_terms, dim), non-negative ints

    @staticmethod
    def from_terms(dim: int, terms) -> "PolynomialMap":
        """Build from an iterable of (coeff, exponents) pairs."""
        merged: dict[tuple[int, ...], float] = {}
        for j, (coeff, expo) in enumerate(terms):
            e = tuple(int(k) for k in expo)
            if len(e) != dim or any(k < 0 for k in e) or e != tuple(expo):
                raise ValueError(f"terms[{j}].expo: expected {dim} "
                                 "non-negative integers")
            merged[e] = merged.get(e, 0.0) + float(coeff)
        merged = {e: c for e, c in merged.items() if c != 0.0}
        order = sorted(merged)
        coeffs = np.array([merged[e] for e in order], dtype=float)
        expo = np.array(order, dtype=np.int64).reshape(len(order), dim)
        return PolynomialMap(dim, coeffs, expo)

    @staticmethod
    def zero(dim: int) -> "PolynomialMap":
        return PolynomialMap.from_terms(dim, [])

    @staticmethod
    def constant(dim: int, value: float) -> "PolynomialMap":
        return PolynomialMap.from_terms(dim, [(value, (0,) * dim)])

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        if self.n_terms == 0:
            return 0
        return int(self.expo.sum(axis=1).max())

    def terms(self) -> list[tuple[float, tuple[int, ...]]]:
        return [(float(c), tuple(int(k) for k in e))
                for c, e in zip(self.coeffs, self.expo)]

    def __call__(self, x) -> float | np.ndarray:
        return evaluate_polynomial(self, x)

    def add(self, other: "PolynomialMap") -> "PolynomialMap":
        return PolynomialMap.from_terms(self.dim, self.terms() + other.terms())

    def mul_monomial(self, var: int) -> "PolynomialMap":
        """Multiply by the variable x_var."""
        expo = self.expo.copy()
        if self.n_terms:
            expo[:, var] += 1
        return PolynomialMap(self.dim, self.coeffs.copy(), expo)

    def derivative(self, var: int) -> "PolynomialMap":
        """Partial derivative with respect to x_var."""
        out = []
        for c, e in self.terms():
            if e[var] > 0:
                e2 = list(e)
                e2[var] -= 1
                out.append((c * e[var], tuple(e2)))
        return PolynomialMap.from_terms(self.dim, out)

    def equal_terms(self, other: "PolynomialMap") -> bool:
        return (self.dim == other.dim
                and self.expo.shape == other.expo.shape
                and np.array_equal(self.expo, other.expo)
                and np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=0.0))


def evaluate_polynomial(p: PolynomialMap, x) -> float | np.ndarray:
    """Evaluate p at a point (d,) or a batch of points (..., d)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.dim:
        raise ValueError(f"point of dimension {x.shape[-1]}, polynomial has {p.dim}")
    if p.n_terms == 0:
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
    # (..., n_terms, dim) powers, reduced over dim then terms
    powers = x[..., None, :] ** p.expo
    vals = powers.prod(axis=-1) @ p.coeffs
    return float(vals) if x.ndim == 1 else vals


@dataclass(frozen=True, eq=False)
class SdeSpec:
    """Diffusion process dx = a(x) dt + b(x)^(1/2) dW in polynomial form.

    ``drift`` has one polynomial per dimension; ``diffusion`` is a d x d
    nested list giving the full diffusion matrix b(x) (not its square
    root), symmetric term-by-term.  ``source`` optionally records the
    jump process a CLE spec was derived from, which lets the simulator
    clamp negative rates instead of guessing how to repair b(x).
    """

    dim: int
    drift: tuple[PolynomialMap, ...]
    diffusion: tuple[tuple[PolynomialMap, ...], ...]
    source: "MjpSpec | None" = None

    def __post_init__(self):
        drift = tuple(self.drift)
        diffusion = tuple(tuple(row) for row in self.diffusion)
        if len(drift) != self.dim:
            raise ValueError("drift must have one polynomial per dimension")
        if len(diffusion) != self.dim or any(len(r) != self.dim for r in diffusion):
            raise ValueError("diffusion must be a square matrix of polynomials")
        for p in drift:
            if p.dim != self.dim:
                raise ValueError("drift polynomial dimension mismatch")
        for i in range(self.dim):
            for j in range(self.dim):
                if diffusion[i][j].dim != self.dim:
                    raise ValueError("diffusion polynomial dimension mismatch")
                if not diffusion[i][j].equal_terms(diffusion[j][i]):
                    raise ValueError(f"diffusion not symmetric at ({i}, {j})")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)


@dataclass(frozen=True, eq=False)
class MjpSpec:
    """Markov jump process: stoichiometry columns and polynomial rates."""

    dim: int
    stoich: np.ndarray   # (dim, n_reactions) integer state changes
    rates: tuple[PolynomialMap, ...]

    def __post_init__(self):
        stoich = finite_array(self.stoich, "stoich")
        rates = tuple(self.rates)
        if (stoich.ndim != 2 or stoich.shape[0] != self.dim
                or (stoich != np.round(stoich)).any()):
            raise ValueError(f"stoich: expected a ({self.dim}, R) matrix "
                             "of integers")
        if (len(rates) != stoich.shape[1]
                or any(g.dim != self.dim for g in rates)):
            raise ValueError(f"rates: expected one polynomial in {self.dim} "
                             "variables per reaction")
        object.__setattr__(self, "stoich", stoich.astype(np.int64))
        object.__setattr__(self, "rates", rates)

    @property
    def n_reactions(self) -> int:
        return self.stoich.shape[1]


def cle_from_mjp(m: MjpSpec) -> SdeSpec:
    """Chemical Langevin diffusion approximation of a jump process.

    drift_i = sum_r S_ir g_r(x) and diffusion_ij = sum_r S_ir S_jr g_r(x),
    expanded symbolically.  The source spec is retained for simulation.
    """
    d = m.dim
    drift = []
    for i in range(d):
        terms = []
        for r in range(m.n_reactions):
            s = int(m.stoich[i, r])
            if s != 0:
                terms.extend((s * c, e) for c, e in m.rates[r].terms())
        drift.append(PolynomialMap.from_terms(d, terms))
    diffusion = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            terms = []
            for r in range(m.n_reactions):
                s = int(m.stoich[i, r]) * int(m.stoich[j, r])
                if s != 0:
                    terms.extend((s * c, e) for c, e in m.rates[r].terms())
            p = PolynomialMap.from_terms(d, terms)
            diffusion[i][j] = p
            diffusion[j][i] = p
    return SdeSpec(d, tuple(drift), tuple(tuple(r) for r in diffusion),
                   source=m)


def lotka_volterra(k0: float = 5.0, k1: float = 0.3, k2: float = 0.004,
                   k3: float = 0.6) -> MjpSpec:
    """Predator-prey birth/death system.

    Reactions on counts (n1, n2) = (prey, predator):

        0 -> X        rate k0          (prey immigration)
        X -> 2X       rate k1 n1       (prey reproduction)
        Y + X -> 2Y   rate k2 n1 n2    (predation)
        Y -> 0        rate k3 n2       (predator death)

    Each rate constant must be finite and non-negative.
    """
    constants = {"k0": k0, "k1": k1, "k2": k2, "k3": k3}
    for name, k in constants.items():
        constants[name] = float(finite_array(k, name, ()))
        if constants[name] < 0:
            raise ValueError(f"{name}: must be non-negative")
    stoich = np.array([[1, 1, -1, 0],
                       [0, 0, 1, -1]], dtype=np.int64)
    rates = tuple(PolynomialMap.from_terms(2, [(k, e)]) for k, e in zip(
        constants.values(), ((0, 0), (1, 0), (1, 1), (0, 1))))
    return MjpSpec(2, stoich, rates)


def linear_sde(A, b) -> SdeSpec:
    """Ornstein-Uhlenbeck process dx = A x dt + b^(1/2) dW, b constant PSD."""
    A = finite_array(A, "A")
    b = finite_array(b, "b")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A: expected a square matrix")
    if b.shape != A.shape:
        raise ValueError(f"b: expected shape {A.shape}, got {b.shape}")
    d = A.shape[0]
    tol = 1e-12 * max(1.0, np.max(np.abs(b)))
    if np.max(np.abs(b - b.T)) > tol:
        raise ValueError("b: must be symmetric")
    if np.linalg.eigvalsh(b)[0] < -tol:
        raise ValueError("b: must be positive semi-definite")
    unit = np.eye(d, dtype=np.int64)
    drift = tuple(
        PolynomialMap.from_terms(
            d, [(A[i, j], tuple(unit[j])) for j in range(d)])
        for i in range(d))
    diffusion = tuple(
        tuple(PolynomialMap.constant(d, float(b[i, j])) for j in range(d))
        for i in range(d))
    return SdeSpec(d, drift, diffusion)
