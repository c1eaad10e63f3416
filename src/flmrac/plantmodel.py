"""Uncertain plant models and their integrator-augmented form.

A plant is x_p' = A_p x_p + B_p (Lambda u + delta_p(t, x_p)) with the
uncertainty parameterized as delta_p = W_p(t)' sigma_p(x_p) over a known
basis.  W_p and Lambda are hidden truth: the simulator integrates them, the
analysis layer may inspect them (the truth's norm and rate budgets are
derived from W_p and its modulations), the controller never sees them.

Augmenting with the command-tracking integrator state x_c' = E_p x_p - c
gives the (A, B, B_r) triple the adaptive architecture operates on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matrixcore import DimensionError

# Numerical rank threshold (relative to sigma_max) for the controllability test.
CTRB_RANK_TOL = 1e-8


#: Named scalar features of x_p, as Python expressions in x_p: the basis is
#: sigma_p(x_p), and time enters delta_p through W_p(t) alone.  Scenario files
#: reference these by name; "x<k>" is the k-th plant state component (PlantModel
#: requires k <= n_p).  This one table builds each basis's function
#: (`BasisSpec.features`).
FEATURE_EXPRESSIONS = {
    "bias": "1.0",
    "abs_x1_x2": "abs(x_p[0]) * x_p[1]",
    "abs_x2_x2": "abs(x_p[1]) * x_p[1]",
    "x1_cubed": "x_p[0] ** 3",
}

_COMPONENT_RE = re.compile(r"^x(\d+)$")


def _expression(name: str) -> str:
    """The expression of a feature, accepting the generic component pattern x<k>."""
    if name in FEATURE_EXPRESSIONS:
        return FEATURE_EXPRESSIONS[name]
    m = _COMPONENT_RE.match(name)
    if m and int(m.group(1)) > 0:
        return f"float(x_p[{int(m.group(1)) - 1}])"
    raise KeyError(f"unknown basis feature {name!r}")


def _function(body: str):
    """`lambda x_p: body`; body is built from FEATURE_EXPRESSIONS and integers only."""
    return eval(f"lambda x_p: {body}", {"__builtins__": {}, "abs": abs, "float": float})


@dataclass(frozen=True)
class BasisSpec:
    """Ordered list of named scalar features of x_p."""

    names: tuple[str, ...]
    #: sigma_p(x_p) as a list, unvalidated (a list x_p is fastest), from one function
    #: built from the names' expressions: each entry is its feature's value at x_p.
    features: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        body = ", ".join(_expression(n) for n in self.names)
        object.__setattr__(self, "features", _function(f"[{body}]"))

    @property
    def dim(self) -> int:
        return len(self.names)

    def eval_plant(self, t: float, x_p) -> np.ndarray:
        """sigma_p(x_p), the plant-basis part only.  t is unused, since no feature
        reads time; the argument stays because perfbench/probes.py passes one."""
        return np.array(self.features(x_p), dtype=float)


@dataclass(frozen=True)
class Modulation:
    """Time modulation of one entry of the truth weight matrix.

    kind "step": entry is 0 before `start`, the base value after.
    kind "sin":  entry is 0 before `start`, base * sin(t) after.
    """

    row: int
    col: int
    kind: str
    start: float = 0.0

    def __post_init__(self):
        if self.kind not in ("step", "sin"):
            raise ValueError(f"unknown modulation kind {self.kind!r}")
        if not math.isfinite(self.start):
            raise ValueError(f"modulation start must be finite, got {self.start}")

    def factor(self, t: float) -> float:
        if t < self.start:
            return 0.0
        return math.sin(t) if self.kind == "sin" else 1.0


@dataclass(frozen=True)
class UncertaintyTruth:
    """Hidden weight matrix W_p(t).

    `W_p_base` holds the constant entries; each Modulation rescales one entry
    over time (e.g. a sinusoidal disturbance switched on mid-run).  The rate
    bound the ultimate bound needs, `w_p_dot_max`, follows from these two
    fields and is not declared.
    """

    W_p_base: np.ndarray
    modulations: tuple[Modulation, ...] = ()

    def __post_init__(self):
        base = np.atleast_2d(np.asarray(self.W_p_base, dtype=float))
        object.__setattr__(self, "W_p_base", base)
        object.__setattr__(self, "modulations", tuple(self.modulations))
        s, m = base.shape
        for mod in self.modulations:
            if not (0 <= mod.row < s and 0 <= mod.col < m):
                raise DimensionError(f"modulation index ({mod.row},{mod.col}) outside {base.shape}")

    @property
    def w_p_dot_max(self) -> float:
        """sup over t >= 0 of ||W_p'(t)||_F, switch-on jumps left out: the root
        sum of squares of the base entries that sin modulations scale.

        When no entry has two sin modulations, it is attained at t = 2 pi k past
        every start, where each cos t is 1.  Otherwise it is an upper bound: a
        product of k sines changes at most sqrt(k) times as fast as one.
        """
        return math.sqrt(sum(self.W_p_base[mod.row, mod.col] ** 2
                             for mod in self.modulations if mod.kind == "sin"))

    @property
    def is_constant(self) -> bool:
        return not self.modulations

    def W_p(self, t: float) -> np.ndarray:
        """W_p(t), as a fresh array: `W_p_grid` at the one time t."""
        return self.W_p_grid((t,))[0]

    def W_p_grid(self, ts) -> np.ndarray:
        """W_p(t) at every time in ts, shape (N, s, m): each entry is its base
        value times the factor of each modulation of that entry, in order."""
        ts = np.asarray(ts, dtype=float)
        W = np.repeat(self.W_p_base[np.newaxis], ts.size, axis=0)
        for mod in self.modulations:
            W[:, mod.row, mod.col] *= [mod.factor(t) for t in ts.tolist()]
        return W


@dataclass(frozen=True)
class PlantModel:
    """Known matrices, hidden truth and basis of one uncertain plant."""

    A_p: np.ndarray
    B_p: np.ndarray
    Lambda: np.ndarray  # diagonal entries, length m, all > 0
    truth: UncertaintyTruth
    basis: BasisSpec

    def __post_init__(self):
        A_p = np.atleast_2d(np.asarray(self.A_p, dtype=float))
        B_p = np.atleast_2d(np.asarray(self.B_p, dtype=float))
        lam = np.atleast_1d(np.asarray(self.Lambda, dtype=float))
        object.__setattr__(self, "A_p", A_p)
        object.__setattr__(self, "B_p", B_p)
        object.__setattr__(self, "Lambda", lam)
        if not (np.all(np.isfinite(A_p)) and np.all(np.isfinite(B_p))):
            raise ValueError("A_p and B_p must be finite")
        n_p = A_p.shape[0]
        if A_p.shape != (n_p, n_p):
            raise DimensionError(f"A_p must be square, got {A_p.shape}")
        if B_p.shape[0] != n_p:
            raise DimensionError(f"B_p has {B_p.shape[0]} rows, expected {n_p}")
        m = B_p.shape[1]
        if lam.shape != (m,):
            raise DimensionError(f"Lambda must have {m} diagonal entries, got {lam.shape}")
        if not all(0.0 < v < math.inf for v in lam.tolist()):
            raise ValueError("control effectiveness Lambda must be finite and strictly positive")
        if self.truth.W_p_base.shape != (self.basis.dim, m):
            raise DimensionError(
                f"truth W_p is {self.truth.W_p_base.shape}, expected ({self.basis.dim}, {m})"
            )
        for name in self.basis.names:  # the x_p[k] each feature's expression indexes
            reads = max([int(k) + 1 for k in re.findall(r"x_p\[(\d+)\]", _expression(name))] + [0])
            if reads > n_p:
                raise ValueError(f"basis feature {name!r} reads plant state {reads}, "
                                 f"but the plant has {n_p}")
        if not self._controllable():
            raise ValueError("(A_p, B_p) is not controllable")

    def _controllable(self) -> bool:
        n_p = self.A_p.shape[0]
        blocks = [self.B_p]
        for _ in range(n_p - 1):
            blocks.append(self.A_p @ blocks[-1])
        ctrb = np.hstack(blocks)
        sv = np.linalg.svd(ctrb, compute_uv=False)
        return bool(np.sum(sv > CTRB_RANK_TOL * sv[0]) == n_p)

    @property
    def n_p(self) -> int:
        return self.A_p.shape[0]

    @property
    def m(self) -> int:
        return self.B_p.shape[1]


@dataclass(frozen=True)
class AugmentedSystem:
    """(A, B, B_r) triple of the integrator-augmented plant."""

    A: np.ndarray
    B: np.ndarray
    B_r: np.ndarray
    E_p: np.ndarray
    n_p: int
    n_c: int

    @property
    def n(self) -> int:
        return self.n_p + self.n_c

    @property
    def m(self) -> int:
        return self.B.shape[1]


def augment(plant: PlantModel, E_p) -> AugmentedSystem:
    """Stack the plant with the command-tracking integrator.

    A = [[A_p, 0], [E_p, 0]], B = [B_p; 0], B_r = [0; -I].  n_c = 0 (no
    integrator, pure stabilization) degenerates to A = A_p, B = B_p and an
    empty B_r.
    """
    E_p = np.asarray(E_p, dtype=float)
    if E_p.size == 0:
        E_p = E_p.reshape(0, plant.n_p)
    E_p = np.atleast_2d(E_p)
    n_p, m = plant.n_p, plant.m
    n_c = E_p.shape[0]
    if E_p.shape != (n_c, n_p):
        raise DimensionError(f"E_p must be (n_c, {n_p}), got {E_p.shape}")
    n = n_p + n_c
    A = np.zeros((n, n))
    A[:n_p, :n_p] = plant.A_p
    A[n_p:, :n_p] = E_p
    B = np.vstack([plant.B_p, np.zeros((n_c, m))])
    B_r = np.vstack([np.zeros((n_p, n_c)), -np.eye(n_c)])
    return AugmentedSystem(A=A, B=B, B_r=B_r, E_p=E_p, n_p=n_p, n_c=n_c)


def aggregate_true_weights(truth, Lambda, K, t: float = 0.0) -> np.ndarray:
    """Aggregated truth W at time t, the (s+n, m) matrix with
    W' = [Lambda^-1 W_p(t)', (Lambda^-1 - I) K].

    `truth` is an UncertaintyTruth.  Analysis-only: the controller never receives this.
    """
    W_p = truth.W_p(t)
    lam = np.atleast_1d(np.asarray(Lambda, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    m = K.shape[0]
    if lam.shape != (m,):
        raise DimensionError(f"Lambda must have {m} entries, got {lam.shape}")
    if np.any(lam == 0):
        raise ValueError("Lambda is singular")
    if W_p.shape[1] != m:
        raise DimensionError(f"W_p has {W_p.shape[1]} columns, expected {m}")
    lam_inv = 1.0 / lam
    upper = W_p * lam_inv  # Lambda^-1 W_p' transposed
    lower = ((np.diag(lam_inv) - np.eye(m)) @ K).T  # ((Lambda^-1 - I) K)'
    return np.vstack([upper, lower])
