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

For speed, every expectation a given SdeSpec needs is expanded once into
a polynomial in the entries of (mean, upper-triangular cov).  The terms
of all these polynomials share few distinct monomials (49 for the 3052
smoothing terms of a d=6 linear SDE), so each block is compiled to
evaluate every distinct monomial once, as a product of gathered factors
and powers, and to sum coeff * monomial into its rows with one bincount.
One code path serves a single point and a stack of points.  The
smoothing right-hand side contracts its block values with the forward
reference z = (1, vec C_fw^-1, C_fw^-1 m_fw); that contraction is
compiled too, into one (output, value, z, coeff) gather and one
bincount.
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


class _Block:
    """Expanded expectations compiled into one evaluation kernel.

    Each row is a polynomial over the packed variables (m, C upper
    triangle), given as an {exponent tuple: coefficient} dict.  A point
    enters as u = (mean, vec cov, 1), stacked points as the columns of
    u; u_index maps each packed variable to its entry of u, the last of
    which is C[d-1, d-1].  The rows' terms are deduplicated into
    distinct monomials at compile time.  A monomial is the product of
    its factors in variable order; a factor is an entry of u or a power
    of one from a small table appended to u, and monomials with fewer
    factors than the longest are padded with u's trailing 1.  Each term
    is coeff * monomial, summed into its row in term order.
    """

    def __init__(self, polys: list[dict], u_index: np.ndarray):
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

        one = int(u_index[-1]) + 1
        powers: dict[tuple[int, int], int] = {}   # (entry, exp) -> position
        factors = []
        for key in monos:
            fac = []
            for var, e in enumerate(key):
                if e == 1:
                    fac.append(int(u_index[var]))
                elif e > 1:
                    fac.append(powers.setdefault((int(u_index[var]), e),
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

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Row values at one point u, or at points stacked as u's columns.

        Entries run down the first axis, so one code path serves both and
        a single point is indexed as a plain vector.  Every row of a stack
        is summed in term order, as for a single point, so the two agree
        bit for bit.
        """
        if self.pow_src is not None:
            u = np.concatenate((u, (u[self.pow_src].T ** self.pow_exp).T))
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
        # packed variable -> its entry of u = (mean, vec cov, 1)
        u_index = np.concatenate([np.arange(d), d + iu[0] * d + iu[1]])
        self._fwd = _Block(fwd_polys, u_index)
        # (d, d) -> the row of (dmean, dcov upper triangle) holding it
        tri = np.zeros((d, d), dtype=np.int64)
        tri[iu] = tri[iu[1], iu[0]] = d + np.arange(len(iu[0]))
        self._cov_rows = tri

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
        self._smb = _Block(polys, u_index)
        self._compile_contraction(np.array([bool(p) for p in polys]))

    def _compile_contraction(self, nonzero: np.ndarray) -> None:
        """Index the smoothing output as one contraction of the block values
        against z = (1, vec P, w), P = C_fw^-1 and w = P m_fw:

            dmean_i = SA_i + sum_kr SBX_ikr P_kr - sum_k SB_ik w_k,
            dxx_pq  = SAX_pq + SAX_qp - SB_pq
                      + sum_kr (SBXX_pqkr + SBXX_qpkr) P_kr
                      - sum_k (SBX_pkq + SBX_qkp) w_k,

        dxx = d<x x^T>/dt taken over the upper triangle p <= q.  Entries
        whose value is identically zero are dropped.
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

    def _point(self, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """The block input u = (mean, vec cov, 1) of one point, or of
        stacked points as columns."""
        if mean.ndim == 1:
            return np.concatenate((mean, cov.ravel(), _ONE))
        n = len(mean)
        return np.concatenate((mean.T, cov.reshape(n, -1).T, np.ones((1, n))))

    def forward(self, mean: np.ndarray, cov: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Forward derivatives at one point, (d,) and (d, d), or at stacked
        points, (n, d) and (n, d, d)."""
        vals = self._fwd.evaluate(self._point(mean, cov)).T
        return vals[..., :self.dim], vals.take(self._cov_rows, axis=-1)

    # the same method under the name the benchmark's tracer wraps as its
    # closure.forward_batch layer
    forward_batch = forward

    def smoothing(self, mean_s: np.ndarray, cov_s: np.ndarray,
                  mean_fw: np.ndarray, prec_fw: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Backward derivative given forward reference (mean_fw, C_fw^-1)."""
        vals = self._smb.evaluate(self._point(mean_s, cov_s))
        z = np.concatenate((_ONE, prec_fw.ravel(), prec_fw @ mean_fw))
        out = np.bincount(self._s_out, minlength=self._s_len,
                          weights=self._s_coef * vals[self._s_val]
                          * z[self._s_z])
        dmean = out[:self.dim]
        m_dmean = mean_s[:, None] * dmean
        return dmean, out[self._cov_rows] - m_dmean - m_dmean.T


@lru_cache(maxsize=None)
def closed_rhs(spec: SdeSpec) -> ClosedOdeRhs:
    """Build (or fetch the cached) compiled moment equations for a spec."""
    return ClosedOdeRhs(spec)


def forward_rhs(spec: SdeSpec, m: GaussianMoments
                ) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of (mean, cov) for the filtering-direction flow."""
    return closed_rhs(spec).forward(m.mean, m.cov)


def smoothing_rhs(spec: SdeSpec, m_s: GaussianMoments, m_fw: GaussianMoments
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of the smoothed (mean, cov) given forward reference."""
    L = _chol(m_fw.cov, "forward covariance")
    Linv = np.linalg.inv(L)
    prec = Linv.T @ Linv
    return closed_rhs(spec).smoothing(m_s.mean, m_s.cov, m_fw.mean, prec)
