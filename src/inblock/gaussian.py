"""Scalar linear additive-Gaussian-noise networks with in-block memory.

A network couples K nodes through L x L lower-triangular channel matrices
G_kj (causality inside the block) with per-node noise covariances and a
symmetric per-node power constraint P.  For a multicast session from node 1
to a sink set, every cut S (source inside, some sink outside) gets:

* an upper bound from the maximum-entropy relaxation, evaluated through the
  singular values of the noise-whitened cut matrix, granting every parallel
  subchannel power |S| P simultaneously (a bound, not a water-filling optimum);
* a quantize-forward lower bound at the white input law Q_X = (P/L) I, which
  pays a one-half-bit-per-dimension quantization penalty;
* a certified per-letter gap of at most K (1 + log2(K L)) / 2 bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import log2
from typing import Iterable

import numpy as np

from .errors import ShapeError

SINGULAR_VALUE_RTOL = 1e-12


@dataclass(frozen=True)
class GaussianNetwork:
    K: int
    L: int
    power: float
    gains: dict                      # (k, j) -> L x L lower-triangular array
    noise: dict = field(default_factory=dict)   # k -> L x L SPD array; default I
    source: int = 1
    sinks: frozenset = frozenset()

    def __post_init__(self):
        if self.K < 2 or self.L < 1:
            raise ShapeError("need at least two nodes and one letter")
        if self.power < 0.0:
            raise ShapeError("power must be nonnegative")
        if not self.sinks or self.source in self.sinks:
            raise ShapeError("sink set must be nonempty and exclude the source")
        gains = {}
        for (k, j), g in self.gains.items():
            if k == j or not (1 <= k <= self.K and 1 <= j <= self.K):
                raise ShapeError(f"bad gain index ({k},{j})")
            g = np.asarray(g, dtype=float)
            if g.shape != (self.L, self.L):
                raise ShapeError(f"G[{k},{j}] must be {self.L}x{self.L}")
            if np.any(np.triu(g, k=1) != 0.0):
                raise ShapeError(f"G[{k},{j}] has entries above the diagonal")
            gains[(k, j)] = g
        object.__setattr__(self, "gains", gains)
        if not set(self.noise) <= set(range(1, self.K + 1)):
            raise ShapeError(f"noise indices {sorted(self.noise)} outside nodes 1..{self.K}")
        noise = {}
        for k in range(1, self.K + 1):
            q = np.asarray(self.noise.get(k, np.eye(self.L)), dtype=float)
            if q.shape != (self.L, self.L) or np.abs(q - q.T).max() > 1e-12:
                raise ShapeError(f"Q[{k}] must be a symmetric {self.L}x{self.L} matrix")
            try:
                np.linalg.cholesky(q)
            except np.linalg.LinAlgError:
                raise ShapeError(f"Q[{k}] is not positive definite") from None
            noise[k] = q
        object.__setattr__(self, "noise", noise)

    def gain(self, k: int, j: int) -> np.ndarray:
        return self.gains.get((k, j), np.zeros((self.L, self.L)))

    def cut_matrix(self, S: Iterable[int]) -> np.ndarray:
        """Stacked G_{S^c S}: receivers outside the cut, senders inside."""
        S = sorted(S)
        Sc = [k for k in range(1, self.K + 1) if k not in S]
        return np.block([[self.gain(k, j) for j in S] for k in Sc])

    def valid_cuts(self) -> list[frozenset]:
        nodes = range(1, self.K + 1)
        cuts = []
        for r in range(1, self.K):
            for S in itertools.combinations(nodes, r):
                S = frozenset(S)
                if self.source in S and (self.sinks - S):
                    cuts.append(S)
        return cuts


def _require_valid_cut(net: GaussianNetwork, S: Iterable[int]) -> frozenset:
    S = frozenset(S)
    if net.source not in S or not (net.sinks - S):
        raise ShapeError(f"cut {sorted(S)} does not separate source from a sink")
    return S


def whiten(net: GaussianNetwork, S: Iterable[int]) -> np.ndarray:
    """Cut matrix premultiplied by the inverse lower Cholesky factor of the
    stacked receiver noise covariance."""
    S = _require_valid_cut(net, S)
    Sc = [k for k in range(1, net.K + 1) if k not in S]
    blocks = [net.noise[k] for k in Sc]
    n = len(Sc) * net.L
    cov = np.zeros((n, n))
    for b, q in enumerate(blocks):
        cov[b * net.L:(b + 1) * net.L, b * net.L:(b + 1) * net.L] = q
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ShapeError("stacked noise covariance is not positive definite") from None
    return np.linalg.solve(chol, net.cut_matrix(S))


def cut_singular_values(net: GaussianNetwork, S: Iterable[int]) -> np.ndarray:
    g = whiten(net, S)
    s = np.linalg.svd(g, compute_uv=False)
    if s.size and s[0] > 0.0:
        s = np.where(s < SINGULAR_VALUE_RTOL * s[0], 0.0, s)
    return s


def cut_upper_bound(net: GaussianNetwork, S: Iterable[int]) -> float:
    """Bits per block: sum_j (1/2) log2(1 + s_j^2 |S| P)."""
    S = _require_valid_cut(net, S)
    s = cut_singular_values(net, S)
    return float(0.5 * np.log2(1.0 + (s ** 2) * len(S) * net.power).sum())


@dataclass(frozen=True)
class LowerBound:
    value: float          # bits per block, clamped at zero
    raw: float            # before clamping
    clamped: bool


def qf_lower_bound(net: GaussianNetwork, S: Iterable[int]) -> LowerBound:
    """Bits per block achieved with white inputs and one-shot quantization:
    sum_j (1/2) log2(1 + s_j^2 P/L) - K L / 2, clamped below at zero."""
    S = _require_valid_cut(net, S)
    s = cut_singular_values(net, S)
    raw = float(0.5 * np.log2(1.0 + (s ** 2) * net.power / net.L).sum()
                - net.K * net.L / 2.0)
    return LowerBound(value=max(raw, 0.0), raw=raw, clamped=raw < 0.0)


@dataclass
class CutGap:
    cut: frozenset
    upper_per_block: float
    lower_per_block: float
    gap_per_letter: float


@dataclass
class GapReport:
    cuts: list[CutGap]
    bound_per_letter: float
    min_cut_upper_per_letter: float
    min_cut_lower_per_letter: float
    realized_gap_per_letter: float
    violations: list[CutGap]

    @property
    def certified(self) -> bool:
        return not self.violations


def gap_bound_per_letter(K: int, L: int) -> float:
    return K * (1.0 + log2(K * L)) / 2.0


def gap_certificate(net: GaussianNetwork, *, tol: float = 1e-6) -> GapReport:
    """Per-cut and overall additive-gap report for the multicast session.

    Asserts (upper - lower)/L <= K(1 + log2(KL))/2 on every valid cut; a
    violation is collected as a counterexample entry (it would falsify this
    implementation, not the bound) and flips ``certified``.
    """
    cuts = net.valid_cuts()
    if not cuts:
        raise ShapeError("network has no valid cut")
    bound = gap_bound_per_letter(net.K, net.L)
    rows, violations = [], []
    for S in cuts:
        upper = cut_upper_bound(net, S)
        lower = qf_lower_bound(net, S)
        gap = (upper - lower.value) / net.L
        row = CutGap(cut=S, upper_per_block=upper,
                     lower_per_block=lower.value, gap_per_letter=gap)
        rows.append(row)
        if gap > bound + tol:
            violations.append(row)
    min_upper = min(r.upper_per_block for r in rows) / net.L
    min_lower = min(r.lower_per_block for r in rows) / net.L
    return GapReport(cuts=rows, bound_per_letter=bound,
                     min_cut_upper_per_letter=min_upper,
                     min_cut_lower_per_letter=min_lower,
                     realized_gap_per_letter=min_upper - min_lower,
                     violations=violations)
