"""Gaussian (cumulant-neglect) moment closure for polynomial SDEs.

Expectations of polynomials under N(mean, cov) are exact via the Wick
pairing rule for central moments: odd central moments vanish, even ones
are sums over pair partitions of products of covariance entries.  Total
monomial degree is capped at 8, which covers quadratic diffusion models
and quartic losses with room to spare.

The closed moment equations come in two flavors:

* forward (filtering direction),

    dmean_i/dt = <a_i>,
    dcov_ij/dt = <(x_i - m_i) a_j> + <(x_j - m_j) a_i> + <b_ij>;

* smoothing (integrated backward against a stored forward pass), which
  adds diffusion-divergence terms and a coupling to the forward marginal
  through grad log q_fw(x) = -C_fw^-1 (x - m_fw):

    d<f_l>/dt = sum_j <a_j df_l/dx_j>
              - sum_jk <df_l/dx_j  db_jk/dx_k>
              - (1/2) sum_jk <b_jk d2f_l/dx_j dx_k>
              - sum_jk <b_jk df_l/dx_j  dlog q_fw/dx_k>,

  taken over f_l in (x, x x^T) and rearranged into mean/cov form.  With
  constant b this reduces exactly to the classical continuous-time
  Rauch-Tung-Striebel smoother.

Moments travel packed as one flat vector y = (mean, cov upper triangle)
(see pack/unpack), and both right-hand sides take and return that
layout: the derivative of y is (dmean, dcov upper triangle).  For speed,
every expectation a given SdeSpec needs is expanded once into a
polynomial in the entries of y.  The terms of all these polynomials
share few distinct monomials (49 for the 3052 smoothing terms of a d=6
linear SDE), so each block is compiled to evaluate every distinct
monomial once, as a product of gathered factors and powers, and to sum
coeff * monomial into its rows with one bincount.  One code path serves
a single point and a stack of points.  The smoothing right-hand side
contracts its block values with the forward reference
z = (1, vec C_fw^-1, C_fw^-1 m_fw) (see smoothing_reference); that
contraction is compiled too, into one (output, value, z, coeff) gather
and one bincount.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from .gaussian import GaussianMoments, _chol
from .processes import PolynomialMap, SdeSpec

MAX_DEGREE = 8
_ONE = np.ones(1)

# ---------------------------------------------------------------------------
# Wick pairings and numeric expectations


@lru_cache(maxsize=None)
def _pairings(idx: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All perfect matchings of an index multiset (empty tuple -> one empty)."""
    if len(idx) % 2 == 1:
        return ()
    if not idx:
        return ((),)
    first, rest = idx[0], idx[1:]
    out = []
    for j in range(len(rest)):
        pair = (min(first, rest[j]), max(first, rest[j]))
        remainder = rest[:j] + rest[j + 1:]
        for sub in _pairings(remainder):
            out.append((pair,) + sub)
    return tuple(out)


def _central_moment(cov: np.ndarray, beta: tuple[int, ...]) -> float:
    """E[prod z_i^beta_i] for z ~ N(0, cov) by direct pairing recursion."""
    idx: list[int] = []
    for i, b in enumerate(beta):
        idx.extend([i] * b)
    if len(idx) % 2 == 1:
        return 0.0
    if not idx:
        return 1.0

    def rec(rest: tuple[int, ...]) -> float:
        if not rest:
            return 1.0
        first, tail = rest[0], rest[1:]
        total = 0.0
        for j in range(len(tail)):
            total += cov[first, tail[j]] * rec(tail[:j] + tail[j + 1:])
        return total

    return rec(tuple(idx))


def gaussian_expectation(p: PolynomialMap, m: GaussianMoments) -> float:
    """E[p(x)] for x ~ N(mean, cov), exact for total degree <= 8."""
    if p.degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree {p.degree} exceeds the "
                         f"supported maximum of {MAX_DEGREE}")
    mean, cov = m.mean, m.cov
    total = 0.0
    for c, alpha in p.terms():
        acc = 0.0
        for beta in product(*(range(a + 1) for a in alpha)):
            w = 1.0
            for i, (a, b) in enumerate(zip(alpha, beta)):
                w *= comb(a, b) * mean[i] ** (a - b)
            if w == 0.0:
                continue
            cm = _central_moment(cov, beta)
            if cm != 0.0:
                acc += w * cm
        total += c * acc
    return float(total)


# ---------------------------------------------------------------------------
# Symbolic expansion into polynomials over (mean, cov) entries


class _SymBuilder:
    """Expands E[x^alpha] under N(m, C) into monomials over (m, C) entries."""

    def __init__(self, dim: int):
        self.dim = dim
        iu = np.triu_indices(dim)
        self.n_vars = dim + len(iu[0])
        self._cvar = {}
        for k, (i, j) in enumerate(zip(*iu)):
            self._cvar[(int(i), int(j))] = dim + k

    def expectation(self, p: PolynomialMap) -> dict[tuple[int, ...], float]:
        if p.degree > MAX_DEGREE:
            raise ValueError(f"polynomial degree {p.degree} exceeds the "
                             f"supported maximum of {MAX_DEGREE}")
        out: dict[tuple[int, ...], float] = {}
        for c, alpha in p.terms():
            for beta in product(*(range(a + 1) for a in alpha)):
                w = float(c)
                mono = [0] * self.n_vars
                for i, (a, b) in enumerate(zip(alpha, beta)):
                    w *= comb(a, b)
                    mono[i] = a - b
                idx: list[int] = []
                for i, b in enumerate(beta):
                    idx.extend([i] * b)
                for pairing in _pairings(tuple(idx)):
                    mono2 = list(mono)
                    for (i, j) in pairing:
                        mono2[self._cvar[(i, j)]] += 1
                    key = tuple(mono2)
                    out[key] = out.get(key, 0.0) + w
        return {k: v for k, v in out.items() if v != 0.0}

    def expectation_times_mean(self, poly_dict: dict, mean_var: int) -> dict:
        """Multiply an expanded expectation by the variable m_mean_var."""
        out = {}
        for key, c in poly_dict.items():
            k2 = list(key)
            k2[mean_var] += 1
            out[tuple(k2)] = out.get(tuple(k2), 0.0) + c
        return out

    @staticmethod
    def combine(*weighted: tuple[float, dict]) -> dict:
        out: dict[tuple[int, ...], float] = {}
        for w, d in weighted:
            for key, c in d.items():
                out[key] = out.get(key, 0.0) + w * c
        return {k: v for k, v in out.items() if v != 0.0}


# ---------------------------------------------------------------------------
# Packed moments


@lru_cache(maxsize=None)
def _layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of a (d, d) covariance's upper triangle, and the
    (d, d) map from each covariance entry to its packed position."""
    iu = np.triu_indices(d)
    sym = np.empty((d, d), dtype=np.int64)
    sym[iu] = sym[iu[1], iu[0]] = d + np.arange(len(iu[0]))
    return iu[0] * d + iu[1], sym


def pack(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """y = (mean, cov upper triangle) of one Gaussian, (d,) and (d, d), or
    of stacked ones, (..., d) and (..., d, d), as rows.  The triangle runs
    in np.triu_indices order, the order _SymBuilder numbers it in."""
    flat, _ = _layout(mean.shape[-1])
    tri = cov.reshape(cov.shape[:-2] + (-1,))[..., flat]
    return np.concatenate((mean, tri), axis=-1)


def unpack(y: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) of one packed vector or of packed rows; cov is
    symmetric by construction."""
    return y[..., :d], y[..., _layout(d)[1]]


def smoothing_reference(mean_fw: np.ndarray, prec_fw: np.ndarray
                        ) -> np.ndarray:
    """z = (1, vec C_fw^-1, C_fw^-1 m_fw) of one forward reference, given
    its mean (d,) and precision (d, d), or of stacked ones as rows."""
    lead = mean_fw.shape[:-1]
    return np.concatenate((np.ones(lead + (1,)),
                           prec_fw.reshape(lead + (-1,)),
                           (prec_fw @ mean_fw[..., None])[..., 0]), axis=-1)


class _Block:
    """Expanded expectations compiled into one evaluation kernel.

    Each row is a polynomial over the packed variables y = (m, C upper
    triangle), given as an {exponent tuple: coefficient} dict.  A point
    enters as u = (y, 1), stacked points as the columns of u.  The rows'
    terms are deduplicated into distinct monomials at compile time.  A
    monomial is the product of its factors in variable order; a factor
    is an entry of y or a power of one from a small table appended to u,
    and monomials with fewer factors than the longest are padded with
    u's 1.  Each term is coeff * monomial, summed into its row in term
    order.
    """

    def __init__(self, polys: list[dict], n_vars: int):
        self.n_rows = len(polys)
        rows, coeffs, term_mono = [], [], []
        monos: dict[tuple[int, ...], int] = {}
        for r, poly in enumerate(polys):
            for key in sorted(poly):
                rows.append(r)
                coeffs.append(poly[key])
                term_mono.append(monos.setdefault(key, len(monos)))
        self.rows = np.array(rows, dtype=np.int64)
        self.coeffs = np.array(coeffs, dtype=float)
        self.term_mono = np.array(term_mono, dtype=np.int64)

        one = n_vars
        powers: dict[tuple[int, int], int] = {}   # (var, exp) -> position
        factors = []
        for key in monos:
            fac = []
            for var, e in enumerate(key):
                if e == 1:
                    fac.append(var)
                elif e > 1:
                    fac.append(powers.setdefault((var, e),
                                                 one + 1 + len(powers)))
            factors.append(fac)
        # at least one column, so a block of constants multiplies by 1
        width = max(1, max(map(len, factors), default=0))
        self.factors = tuple(np.array([f + [one] * (width - len(f))
                                       for f in factors],
                                      dtype=np.int64).reshape(-1, width).T)
        self.pow_src = self.pow_exp = None
        if powers:
            self.pow_src, self.pow_exp = np.array(list(powers)).T

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Row values at one packed point y, or at points stacked as y's
        columns.

        Entries run down the first axis, so one code path serves both and
        a single point is indexed as a plain vector.  Every row of a stack
        is summed in term order, as for a single point, so the two agree
        bit for bit.
        """
        parts = (y, _ONE if y.ndim == 1 else np.ones((1, y.shape[1])))
        if self.pow_src is not None:
            parts += ((y[self.pow_src].T ** self.pow_exp).T,)
        u = np.concatenate(parts)
        mono = u[self.factors[0]]
        for col in self.factors[1:]:
            mono = mono * u[col]
        terms = (mono[self.term_mono].T * self.coeffs).T
        if u.ndim == 1:
            return np.bincount(self.rows, weights=terms,
                               minlength=self.n_rows)
        n = u.shape[1]
        rows = self.rows[:, None] * n + np.arange(n)
        return np.bincount(rows.ravel(), weights=terms.ravel(),
                           minlength=self.n_rows * n).reshape(self.n_rows, n)


class ClosedOdeRhs:
    """Precompiled closed moment equations for one SdeSpec."""

    def __init__(self, spec: SdeSpec):
        d = spec.dim
        self.dim = d
        iu = np.triu_indices(d)
        sym = _SymBuilder(d)
        expanded: dict[tuple[bytes, bytes], dict] = {}

        def E(p: PolynomialMap) -> dict:
            # many requested expectations repeat (symmetric b, swapped
            # x_q x_r, forward terms reused by smoothing): expand each once
            key = (p.coeffs.tobytes(), p.expo.tobytes())
            if key not in expanded:
                expanded[key] = sym.expectation(p)
            return expanded[key]

        def sub(d1: dict, d2: dict) -> dict:
            return sym.combine((1.0, d1), (-1.0, d2))

        a = spec.drift
        b = spec.diffusion
        div = [PolynomialMap.zero(d) for _ in range(d)]
        for i in range(d):
            for k in range(d):
                div[i] = div[i].add(b[i][k].derivative(k))

        # forward: dm_i = <a_i>;  dC_ij = <a_i x_j> + <a_j x_i>
        #          - m_i <a_j> - m_j <a_i> + <b_ij>
        Ea = [E(a[i]) for i in range(d)]
        fwd_polys = list(Ea)
        for (i, j) in zip(*iu):
            i, j = int(i), int(j)
            dc = sym.combine(
                (1.0, E(a[i].mul_monomial(j))),
                (1.0, E(a[j].mul_monomial(i))),
                (-1.0, sym.expectation_times_mean(Ea[j], i)),
                (-1.0, sym.expectation_times_mean(Ea[i], j)),
                (1.0, E(b[i][j])),
            )
            fwd_polys.append(dc)
        self._fwd = _Block(fwd_polys, sym.n_vars)

        # smoothing pieces, packed in one block:
        #   SA_i           = <a_i> - <div_i>
        #   SAX_ij         = <a_i x_j> - <div_i x_j>
        #   SB_ik          = <b_ik>
        #   SBX_(i,k,r)    = <b_ik x_r>
        #   SBXX_(p,q,k,r) = <b_pk x_q x_r>
        polys = []
        for i in range(d):
            polys.append(sub(Ea[i], E(div[i])))
        for i in range(d):
            for j in range(d):
                polys.append(sub(E(a[i].mul_monomial(j)),
                                 E(div[i].mul_monomial(j))))
        for i in range(d):
            for k in range(d):
                polys.append(E(b[i][k]))
        for i in range(d):
            for k in range(d):
                for r in range(d):
                    polys.append(E(b[i][k].mul_monomial(r)))
        for p_ in range(d):
            for q in range(d):
                for k in range(d):
                    for r in range(d):
                        polys.append(
                            E(b[p_][k].mul_monomial(q).mul_monomial(r)))
        self._smb = _Block(polys, sym.n_vars)
        self._compile_contraction(np.array([bool(p) for p in polys]))

    def _compile_contraction(self, nonzero: np.ndarray) -> None:
        """Index the smoothing output as one contraction of the block values
        against z = (1, vec P, w), P = C_fw^-1 and w = P m_fw:

            dmean_i = SA_i + sum_kr SBX_ikr P_kr - sum_k SB_ik w_k,
            dxx_pq  = SAX_pq + SAX_qp - SB_pq
                      + sum_kr (SBXX_pqkr + SBXX_qpkr) P_kr
                      - sum_k (SBX_pkq + SBX_qkp) w_k,

        dxx = d<x x^T>/dt taken over the upper triangle p <= q.  Entries
        whose value is identically zero are dropped.  dcov_pq is then
        dxx_pq - m_p dmean_q - m_q dmean_p.
        """
        d = self.dim
        i = np.arange(d)
        p, q = np.triu_indices(d)
        t = d + np.arange(len(p))
        # value rows of the smoothing block, and the z entries
        blocks = np.cumsum([d, d * d, d * d, d ** 3])
        AX = blocks[0] + np.arange(d * d).reshape(d, d)
        B = blocks[1] + np.arange(d * d).reshape(d, d)
        BX = blocks[2] + np.arange(d ** 3).reshape(d, d, d)
        BXX = blocks[3] + np.arange(d ** 4).reshape(d, d, d, d)
        P = 1 + np.arange(d * d).reshape(d, d)
        w = 1 + d * d + i
        entries = [   # (output, value, z, coeff), broadcast against each other
            (i, i, 0, 1.0),
            (i[:, None, None], BX, P, 1.0),
            (i[:, None], B, w, -1.0),
            (t, AX[p, q], 0, 1.0),
            (t, AX[q, p], 0, 1.0),
            (t, B[p, q], 0, -1.0),
            (t[:, None, None], BXX[p, q], P, 1.0),
            (t[:, None, None], BXX[q, p], P, 1.0),
            (t[:, None], BX[p, :, q], w, -1.0),
            (t[:, None], BX[q, :, p], w, -1.0),
        ]
        flat = [[x.ravel() for x in np.broadcast_arrays(*e)] for e in entries]
        out, val, z, coef = map(np.concatenate, zip(*flat))
        keep = nonzero[val]
        self._s_out, self._s_val = out[keep], val[keep]
        self._s_z, self._s_coef = z[keep], coef[keep]
        self._s_len = d + len(p)
        self._sym = p, q

    def forward(self, y: np.ndarray) -> np.ndarray:
        """Packed forward derivative at one packed point, (n_p,), or at
        points stacked as rows, (n, n_p)."""
        return self._fwd.evaluate(y.T).T

    # the same method under the name the benchmark's tracer wraps as its
    # closure.forward_batch layer
    forward_batch = forward

    def smoothing(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Packed backward derivative at one packed point y, given the
        forward reference row z (see smoothing_reference)."""
        vals = self._smb.evaluate(y)
        out = np.bincount(self._s_out, minlength=self._s_len,
                          weights=self._s_coef * vals[self._s_val]
                          * z[self._s_z])
        dmean = out[:self.dim]
        p, q = self._sym
        out[self.dim:] -= y[p] * dmean[q] + y[q] * dmean[p]
        return out


@lru_cache(maxsize=None)
def closed_rhs(spec: SdeSpec) -> ClosedOdeRhs:
    """Build (or fetch the cached) compiled moment equations for a spec."""
    return ClosedOdeRhs(spec)


def forward_rhs(spec: SdeSpec, m: GaussianMoments
                ) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of (mean, cov) for the filtering-direction flow."""
    return unpack(closed_rhs(spec).forward(pack(m.mean, m.cov)), spec.dim)


def smoothing_rhs(spec: SdeSpec, m_s: GaussianMoments, m_fw: GaussianMoments
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of the smoothed (mean, cov) given forward reference."""
    L = _chol(m_fw.cov, "forward covariance")
    Linv = np.linalg.inv(L)
    prec = Linv.T @ Linv
    dy = closed_rhs(spec).smoothing(pack(m_s.mean, m_s.cov),
                                    smoothing_reference(m_fw.mean, prec))
    return unpack(dy, spec.dim)
