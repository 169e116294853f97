"""Multi-objective problem representations.

Covers general smooth objectives, piecewise-smooth max-type objectives, and
the quadratic least-squares family

    f_j(x) = 1/2 ||W_j^T x - y_j||^2  =  1/2 x^T A_j x + b_j^T x + const,
    A_j = W_j W_j^T,  b_j = -W_j y_j,

together with its Tikhonov-regularized closed-form solutions.  The
regularizer attached to objective j is the diagonal quadratic penalty

    gamma/2 * || diag(rtilde_j) (x - c) ||^2,   rtilde_j,i = sqrt((A_j)_ii),

whose gradient gamma * diag(diag(A_j)) (x - c) is exactly the pull term the
fractional gradient of f_j produces; a rank-one outer-product variant
(rtilde_j rtilde_j^T) serves comparison runs.  `regularized` attaches either
penalty to a quadratic and is the only place a merit is built: a stage runs
on those merits, and `tikhonov_solve` returns the critical point of their
multiplier-weighted sum, with the system's extreme singular values.

A quadratic's gradient has one representation, `QuadraticGradient`
(A x + b), which every quadratic constructor and every merit builds, a
merit as (H + gamma R) x + grad f(0) - gamma R c; `quadratic_stack` reads
m quadratics' A and b once, so A @ x + B gives their gradients at x.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fractional import terminals

__all__ = [
    "SingularSystemError",
    "ObjectiveModel",
    "PiecewiseMaxObjective",
    "QuadraticMop",
    "TikhonovSolution",
    "quadratic_objective",
    "regularized",
    "random_quadratic_mop",
    "tikhonov_solve",
    "save_mop",
]

_FD_CHECK_STEP = 1e-6
_FD_CHECK_TOL = 1e-5
# Candidate points the check scans for 10 whose stencil has no located kink.
_FD_CHECK_CANDIDATES = 1000
# A piece of a PiecewiseMaxObjective is active at x when its value lies
# within this of the max.  It is SolverConfig's default stop tolerance on
# ||d||: with it, descent on |x1| + |x2| and on example 3 stops at the
# tolerance at the minimizer, while 1e-9 leaves one |x1| + |x2| run in
# model_mismatch with two of the four pieces 6e-9 below the max.
ACTIVE_TOLERANCE = 1e-6


class SingularSystemError(np.linalg.LinAlgError):
    """Regularized normal equations are singular (gamma = 0 with a rank-deficient Gram sum)."""


@dataclass(frozen=True)
class ObjectiveModel:
    """One objective: value, classical gradient, and a Hessian that only a
    quadratic needs and only a quadratic's is read.

    value, gradient and hessian take one point or a (k, n) stack of points
    and return (k,), (k, n) and (k, n, n) for a stack, row by row; one point
    keeps its own return (a float for the quadratics).  The modified
    fractional gradient evaluates x and the quadrature nodes of all
    coordinates in one stacked gradient call.

    kind is "quadratic", "smooth", or "piecewise".  "piecewise" is
    PiecewiseMaxObjective's alone, since a stage reads its active pieces
    (`active_gradients`).  "quadratic" declares one consistent quadratic:
    a constant symmetric Hessian H with f(x + u) = f(x) + grad f(x)^T u
    + u^T H u / 2 exactly, which the Armijo line search uses in place of
    evaluated values.  Piecewise objectives must carry a kink_locator with
    signature (x, i, lo, hi) -> kink_abscissae giving the
    non-differentiability points of the coordinate-i restriction inside
    (lo, hi).  The fractional gradient splits its quadrature there and has
    no other way to find a kink.

    The gradient is validated against central finite differences of the
    value at construction, on 10 deterministic points (`_check_points`;
    piecewise kinds skip points whose difference stencil contains a
    located kink; after _FD_CHECK_CANDIDATES candidates without 10 such
    points it raises ValueError).  The gradient is evaluated as one stack,
    and the whole stencil, 2 n rows per point, in one value call; either
    is refused with ValueError when its result has the wrong shape.  One
    check compares them, and its error names the first point that
    disagrees; a quadratic's Hessian is also validated against central
    differences of the gradient on the same points.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kind: str = "smooth"
    kink_locator: Optional[Callable] = None
    dim: int = 2
    validate: bool = True

    def __post_init__(self):
        if self.kind not in ("quadratic", "smooth", "piecewise"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "quadratic" and self.hessian is None:
            raise ValueError("quadratic objectives must provide a Hessian")
        if self.kind == "piecewise" and self.kink_locator is None:
            raise ValueError("piecewise objectives must provide a kink_locator")
        if self.kind == "piecewise" and not isinstance(self, PiecewiseMaxObjective):
            raise ValueError("a piecewise objective must be a PiecewiseMaxObjective, "
                             "whose active pieces a stage reads")
        if self.validate:
            self._check_gradient()

    def _check_gradient(self):
        points = []
        for x in itertools.islice(_check_points(self.dim), _FD_CHECK_CANDIDATES):
            if self.kind == "piecewise" and any(
                    len(self.kink_locator(x, i, x[i] - 10 * _FD_CHECK_STEP,
                                          x[i] + 10 * _FD_CHECK_STEP))
                    for i in range(self.dim)):
                continue  # the FD stencil straddles a kink
            points.append(x)
            if len(points) == 10:
                break
        else:
            raise ValueError(
                f"the kink locator reports a kink in the check stencil of "
                f"{_FD_CHECK_CANDIDATES - len(points)} of {_FD_CHECK_CANDIDATES} candidate "
                f"points, so fewer than 10 are left for the gradient check")
        points = np.array(points)
        grads = np.asarray(self.gradient(points), dtype=float)
        if grads.shape != points.shape:
            raise ValueError(f"gradient of a {points.shape} stack has shape {grads.shape}")
        steps = _FD_CHECK_STEP * np.eye(self.dim)
        # Row (p, s, i) of the stencil is points[p] + (-1)^s steps[i].
        stencil = (points[:, None, None] + np.stack([steps, -steps])).reshape(-1, self.dim)
        values = np.asarray(self.value(stencil), dtype=float)
        if values.shape != stencil.shape[:1]:
            raise ValueError(f"value of a {stencil.shape} stack has shape {values.shape}")
        values = values.reshape(-1, 2, self.dim)
        fd = (values[:, 0] - values[:, 1]) / (2 * _FD_CHECK_STEP)
        if not np.allclose(grads, fd, atol=_FD_CHECK_TOL, rtol=_FD_CHECK_TOL):
            close = np.isclose(grads, fd, atol=_FD_CHECK_TOL, rtol=_FD_CHECK_TOL).all(axis=1)
            i = int(np.argmin(close))  # the first point that disagrees
            raise ValueError(f"gradient disagrees with finite differences at "
                             f"x = {points[i]}: {grads[i]} vs {fd[i]}")
        if self.kind == "quadratic":
            ahead, behind = (np.asarray(self.gradient((points[:, None] + s).reshape(-1, self.dim)),
                                        dtype=float) for s in (steps, -steps))
            fd = (ahead - behind).reshape(-1, self.dim, self.dim) / (2 * _FD_CHECK_STEP)
            hess = np.asarray(self.hessian(points), dtype=float)
            if hess.shape != fd.shape or not np.allclose(hess, fd, atol=_FD_CHECK_TOL,
                                                         rtol=_FD_CHECK_TOL):
                raise ValueError("Hessian disagrees with finite differences of the gradient")


def _check_points(dim: int):
    """Endless points 4 frac(1/2 + k theta) - 2 in [-2, 2]^dim, k = 1, 2, ...

    The additive recurrence with theta_i = phi^-(i+1), phi^(dim+1) = phi + 1
    (Roberts' R_d sequence) spreads the points evenly without a random
    generator, so building an objective does not import numpy.random.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    theta = phi ** -np.arange(1.0, dim + 1)
    for k in itertools.count(1):
        yield 4.0 * ((0.5 + k * theta) % 1.0) - 2.0


@dataclass(frozen=True, eq=False)
class QuadraticGradient:
    """x -> A x + b, the gradient of a quadratic model, for one point or row
    by row for a (k, n) stack: (A @ x.T).T, which for one point is A @ x
    (A @ x would mix the rows of a square stack)."""

    a_matrix: np.ndarray
    b: np.ndarray

    def __call__(self, x):
        return (self.a_matrix @ np.asarray(x).T).T + self.b


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def quadratic_stack(models: Sequence[ObjectiveModel], x: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only stacks A (m, n, n) and B (m, n) of the quadratic models'
    Hessians at the point x and gradients at 0, zeros for the other kinds,
    so that row j of A @ x + B is quadratic j's gradient at any x.

    Each quadratic's hessian and gradient is called once, here, whatever
    the callables are.  A @ x makes one gemv per C-ordered slice, so row j
    has the bits of a `QuadraticGradient` call on a C-ordered A_j.
    """
    n = np.size(x)
    zero = np.zeros(n)
    quadratic = [m.kind == "quadratic" for m in models]
    a = np.array([m.hessian(x) if q else np.zeros((n, n)) for m, q in zip(models, quadratic)])
    b = np.array([m.gradient(zero) if q else zero for m, q in zip(models, quadratic)])
    return _read_only(a), _read_only(b)


def quadratic_objective(a_matrix: np.ndarray, b: np.ndarray, const: float = 0.0) -> ObjectiveModel:
    """f(x) = 1/2 x^T A x + b^T x + const as an ObjectiveModel."""
    a_matrix = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.allclose(a_matrix, a_matrix.T):
        raise ValueError("quadratic matrix must be symmetric")

    def value(x):
        x = np.asarray(x)
        return _scalar((0.5 * x[..., None, :] @ a_matrix @ x[..., :, None])[..., 0, 0]
                       + _dots(b, x) + const)
    return ObjectiveModel(value, QuadraticGradient(a_matrix, b), _constant_hessian(a_matrix),
                          kind="quadratic", dim=b.size)


def _half_squared_residual(W: np.ndarray, y: np.ndarray) -> Callable:
    """x -> 1/2 ||W^T x - y||^2 for one point or row by row for a stack."""
    def value(x):
        r = (W.T @ np.asarray(x)[..., :, None])[..., 0] - y
        return _scalar(_dots(0.5 * r, r))
    return value


def _dots(a, b):
    """The dot products of a and b over their last axis, row by row for a
    stack: each row is one dot call (a stacked matmul makes one per row), so
    it has the bits of a @ b for that row alone."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar(v):
    """v as a float for one point; a stack's array as it is."""
    return float(v) if np.ndim(v) == 0 else v


def _constant_hessian(a_matrix: np.ndarray) -> Callable:
    """x -> A for one point, a read-only (k, n, n) broadcast of A for a stack."""
    return (lambda x: a_matrix if np.ndim(x) == 1
            else np.broadcast_to(a_matrix, np.shape(x)[:-1] + a_matrix.shape))


def regularized(obj: ObjectiveModel, gamma: float, c, reg: str = "diag") -> ObjectiveModel:
    """Quadratic objective plus the Tikhonov pull gamma/2 (x-c)^T R (x-c).

    R = diag(diag(H)) for reg="diag" (the pull a stage's fractional gradient
    adds) or r r^T with r = sqrt(diag(H)) for reg="outer" (the rank-one
    comparison form).  This is the only place a pull is attached to an
    objective; gamma = 0 returns obj itself.  The merit is itself a
    quadratic, so its gradient is the `QuadraticGradient` of
    (H + gamma R, grad f(0) - gamma R c), whatever obj's gradient is (a
    wrapper, a lambda, a merit's): grad f(0) is read with one gradient
    call, here, and R c is h * c for "diag" and r (r^T c) for "outer".
    H + gamma R is built once, here, and is also the merit's constant
    Hessian: for "diag" a copy of H with gamma h added to its diagonal, so
    the off-diagonal entries keep H's bits, and for "outer" the sum
    H + gamma r r^T.  c is read by `fractional.terminals` at every gamma
    (None is zeros; ValueError for a length other than 1 or n and for a
    non-finite entry), and the merit keeps the copy it returns, so writing
    into the caller's array later changes neither its value nor its
    gradient.
    """
    if reg not in ("diag", "outer"):
        raise ValueError(f"unknown regularizer {reg!r}")
    if obj.kind != "quadratic":
        raise ValueError("only quadratic objectives take a Tikhonov pull")
    c = terminals(c, obj.dim)
    if gamma == 0.0:
        return obj
    hess = np.asarray(obj.hessian(c), dtype=float)
    h = hess.diagonal()
    if reg == "diag":
        merit_hess = hess.copy()
        merit_hess.flat[::obj.dim + 1] += gamma * h
        reg_c = h * c
        penalty = lambda u: _dots(h, u ** 2)
    else:
        r = np.sqrt(h)
        merit_hess = hess + gamma * np.outer(r, r)
        reg_c = r * (r @ c)
        penalty = lambda u: _dots(r, u) ** 2
    merit_hess.flags.writeable = False  # every call returns this one array
    offset = np.asarray(obj.gradient(np.zeros(obj.dim)), dtype=float) - gamma * reg_c

    return ObjectiveModel(
        value=lambda x: _scalar(obj.value(x) + 0.5 * gamma * penalty(x - c)),
        gradient=QuadraticGradient(merit_hess, offset),
        hessian=_constant_hessian(merit_hess),
        kind="quadratic", dim=obj.dim, validate=False,
    )


class PiecewiseMaxObjective(ObjectiveModel):
    """max of finitely many smooth pieces.

    Pieces are (value, gradient) pairs that answer a (k, n) stack with (k,)
    and (k, n).  The value of the max is the largest piece value, and its
    gradient is that of the largest piece, row by row, the first of pieces
    tied for it.  One rule says which pieces are active at a point x: those
    within ACTIVE_TOLERANCE of the max (`active_gradients`).  A stage puts
    every active piece's gradient into its direction subproblem, and
    `subgradient` averages them.
    kink_locator (x, i, lo, hi) -> kink abscissae locates where the largest
    piece changes along coordinate i (see ObjectiveModel).
    The piece values are one np.array of the pieces' answers, transposed to
    put the pieces last.
    """

    def __init__(self, pieces: Sequence[tuple[Callable, Callable]], dim: int,
                 kink_locator: Callable):
        object.__setattr__(self, "_pieces", list(pieces))
        super().__init__(
            value=lambda x: self._piece_values(x).max(axis=-1),
            gradient=lambda x: self._active(x),
            kind="piecewise",
            kink_locator=kink_locator,
            dim=dim,
        )

    def _piece_values(self, x) -> np.ndarray:
        """Values of every piece, stacked on the last axis."""
        return np.array([p[0](x) for p in self._pieces], dtype=float).T

    def _active(self, x) -> np.ndarray:
        """Gradient of the largest piece, row by row: the row-wise argmax."""
        top = self._piece_values(x).argmax(axis=-1)
        grads = np.array([p[1](x) for p in self._pieces], dtype=float)
        return np.take_along_axis(grads, top[None, ..., None], axis=0)[0]

    def active_gradients(self, x: np.ndarray) -> np.ndarray:
        """The gradients at the point x of the pieces within ACTIVE_TOLERANCE
        of the max, as the rows of a (k, n) array: first the largest
        piece's, the row `gradient` answers, then the others in piece order."""
        values = self._piece_values(x)
        top = int(values.argmax())
        near = values >= values[top] - ACTIVE_TOLERANCE
        near[top] = False
        return np.array([self._pieces[i][1](x) for i in [top, *np.flatnonzero(near).tolist()]],
                        dtype=float)

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        """Mean of `active_gradients(x)`, a convex combination of the active
        gradients at the point x."""
        grads = self.active_gradients(x)
        return grads.sum(axis=0) / len(grads)


@dataclass(frozen=True)
class QuadraticMop:
    """Least-squares multi-objective problem built from factors W_j and targets y_j.

    Derived arrays: gram A_j = W_j W_j^T, offsets b_j = -W_j y_j, and
    rtilde_j = sqrt(diag(A_j)) (all nonnegative, rtilde_j,i^2 = (A_j)_ii).
    x_star is the common least-squares ground truth, stored by the random
    generator or recovered from the normal equations otherwise.
    """

    factors: tuple[np.ndarray, ...]
    targets: tuple[np.ndarray, ...]
    x_star: Optional[np.ndarray] = None
    seed: Optional[int] = None
    gram: tuple[np.ndarray, ...] = field(init=False)
    offsets: tuple[np.ndarray, ...] = field(init=False)
    rtilde: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        ws = tuple(np.asarray(W, dtype=float) for W in self.factors)
        ys = tuple(np.asarray(y, dtype=float) for y in self.targets)
        if len(ws) != len(ys) or not ws:
            raise ValueError("factors and targets must be nonempty and equally long")
        n = ws[0].shape[0]
        for W, y in zip(ws, ys):
            if W.ndim != 2 or W.shape[0] != n:
                raise ValueError("all factors must be n x m_j matrices with a common n")
            if y.shape != (W.shape[1],):
                raise ValueError("target length must match the factor column count")
        object.__setattr__(self, "factors", ws)
        object.__setattr__(self, "targets", ys)
        object.__setattr__(self, "gram", tuple(W @ W.T for W in ws))
        object.__setattr__(self, "offsets", tuple(-W @ y for W, y in zip(ws, ys)))
        object.__setattr__(self, "rtilde", tuple(np.sqrt(np.diag(A)) for A in self.gram))
        if self.x_star is not None:
            xs = np.asarray(self.x_star, dtype=float)
            if xs.shape != (n,):
                raise ValueError("x_star must be an n-vector")
            object.__setattr__(self, "x_star", xs)

    @property
    def dim(self) -> int:
        return self.factors[0].shape[0]

    @property
    def n_objectives(self) -> int:
        return len(self.factors)

    def objectives(self) -> list[ObjectiveModel]:
        """Raw ObjectiveModels of the m objectives, f_j(x) = 1/2 ||W_j^T x -
        y_j||^2; a staged run adds the regularizer itself (see `regularized`)."""
        return [
            ObjectiveModel(_half_squared_residual(W, y), QuadraticGradient(A, b),
                           _constant_hessian(A), kind="quadratic", dim=self.dim, validate=False)
            for W, y, A, b in zip(self.factors, self.targets, self.gram, self.offsets)
        ]

    def least_squares_solution(self) -> np.ndarray:
        """The stored ground truth, or the unregularized normal-equations solution."""
        if self.x_star is not None:
            return self.x_star
        S = sum(self.gram)
        rhs = sum(W @ y for W, y in zip(self.factors, self.targets))
        try:
            return np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("unregularized Gram sum is singular") from exc


@dataclass(frozen=True)
class TikhonovSolution:
    """Critical point of the weighted stage merit, with the regularized
    merits it weights, its system matrix and that matrix's extreme singular
    values."""

    x_tik: np.ndarray
    merits: tuple[ObjectiveModel, ...]
    a_matrix: np.ndarray
    sigma_max: float
    sigma_min: float

    @property
    def kappa(self) -> float:
        return self.sigma_max / self.sigma_min if self.sigma_min > 0 else float("inf")


def random_quadratic_mop(n: int, m_data: int, m: int, seed: int) -> QuadraticMop:
    """Seeded random instance: W_j entries iid uniform(-1,1), y_j = W_j^T x*.

    The draw order (W_1, ..., W_m, then x*) is fixed, so one seed pins the
    instance bit-for-bit.
    """
    if min(n, m_data, m) < 1:
        raise ValueError("n, m_data and m must all be positive")
    rng = np.random.default_rng(seed)
    ws = tuple(rng.uniform(-1.0, 1.0, (n, m_data)) for _ in range(m))
    x_star = rng.uniform(-1.0, 1.0, n)
    ys = tuple(W.T @ x_star for W in ws)
    return QuadraticMop(factors=ws, targets=ys, x_star=x_star, seed=seed)


def tikhonov_solve(mop: QuadraticMop, gamma: float, multipliers: np.ndarray,
                   terminal, regularizer: str = "diag") -> TikhonovSolution:
    """Critical point of the multiplier-weighted stage merit.

    With merit_j = regularized(f_j, gamma, c, regularizer), the weighted
    merit sum_j lambda_j merit_j is quadratic with Hessian
    S = sum_j lambda_j merit_j.hessian(c), so its critical point is the one
    Newton step x_tik = c - S^{-1} sum_j lambda_j grad merit_j(c).  The
    returned a_matrix is S, the system the fixed-step runs use, with its
    extreme singular values from one SVD.  gamma must be finite and
    nonnegative, as a `Stage`'s, and the terminal c is read by
    `fractional.terminals` (None is zeros); ValueError otherwise.
    """
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (mop.n_objectives,) or lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-10:
        raise ValueError("multipliers must lie on the unit simplex")
    c = terminals(terminal, mop.dim)
    merit = tuple(regularized(obj, gamma, c, regularizer) for obj in mop.objectives())

    def weighted_gradient(x):
        return sum(w * m.gradient(x) for w, m in zip(lam, merit))

    system = sum(w * m.hessian(c) for w, m in zip(lam, merit))
    try:
        shift = np.linalg.solve(system, weighted_gradient(c))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "regularized system is singular (gamma = 0 with rank-deficient Gram sum?)"
        ) from exc
    if not np.all(np.isfinite(shift)):
        raise SingularSystemError("regularized system solve produced non-finite values")
    x_tik = c - shift

    residual = np.linalg.norm(weighted_gradient(x_tik))
    if residual > 1e-8 * (1.0 + np.linalg.norm(x_tik)):
        raise SingularSystemError(f"normal-equation residual {residual:.3e} too large")

    sigma = np.linalg.svd(system, compute_uv=False)
    return TikhonovSolution(x_tik=x_tik, merits=merit, a_matrix=system,
                            sigma_max=float(sigma[0]), sigma_min=float(sigma[-1]))


_FORMAT_TAG = "mofgd-quadratic-mop/1"


def save_mop(mop: QuadraticMop, path, terminal: Optional[np.ndarray] = None) -> None:
    """Serialize an instance (seed, dimensions, W_j, y_j, optional c) as
    the JSON text of json.dump(doc, fh, indent=1)."""
    doc = {
        "format": _FORMAT_TAG,
        "seed": mop.seed,
        "n": mop.dim,
        "m": mop.n_objectives,
        "m_data": [W.shape[1] for W in mop.factors],
        "W": [W.tolist() for W in mop.factors],
        "y": [y.tolist() for y in mop.targets],
        "x_star": None if mop.x_star is None else mop.x_star.tolist(),
        "c": None if terminal is None else np.asarray(terminal, dtype=float).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)

