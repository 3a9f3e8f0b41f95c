"""Direct first-order optimization of per-pixel depth and context poses.

Depth is parameterized in log space (positivity by construction, symmetric
multiplicative steps); poses as 6 parameters per context frame. Updates use
Adam in its standard form, with b1 = BETA1, b2 = BETA2 and eps = EPSILON:

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
    param -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

with lr = LR_DEPTH for depth, LR_POSE for translations and LR_POSE / 10 for
rotation angles.

`run` performs the two-phase schedule: phase A minimizes the unsupervised
objective (supervised weight zero) and lands somewhere on the scale valley;
phase B turns the supervised term on, whose gradient pulls depth toward the
labels' scale. Phase B need not reach that scale: on the shipped example
(8 beams of 12 labels) the median predicted/true depth ratio reads 0.8105
after phase A and 0.8310 after phase B. Each phase stops at its own
budget (phase_a_iters, phase_b_iters) or once the loss has changed by at
most tol (relative) for TOL_WINDOW steps in a row. The optimizer state
between phases keeps depth/poses but restarts the Adam moments, mirroring
a fresh refinement run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import io_codecs, losses, metrics
from .errors import ConfigError, DivergedError, NoSupervisionError
from .geometry import EPS_Z, PoseSE3
from .losses import LossBreakdown, LossWeights
from .synth import Scene

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's standard moments
LR_DEPTH, LR_POSE = 0.02, 5e-3
# Rotation angles live on a much finer scale than translations (a few
# hundredths of a radian can mimic a whole baseline on planar scenes), so
# they step 10x slower than the translations.
LR_POSE_PARAMS = np.array([LR_POSE / 10.0] * 3 + [LR_POSE] * 3)
LR_POSE_PARAMS.flags.writeable = False
TOL_WINDOW = 25  # flat steps in a row that end a phase
# Standard deviations of the seeded pose perturbation init_state starts from.
POSE_INIT_ROT_STD, POSE_INIT_TRANS_STD = 0.002, 0.02


@dataclass
class OptimConfig:
    phase_a_iters: int = 2000
    phase_b_iters: int = 1000
    tol: float = 1e-7
    weights: LossWeights = field(default_factory=LossWeights)
    init_depth: float = 10.0
    supervised_loss: str = "rep"
    num_scales: int = 1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if min(self.phase_a_iters, self.phase_b_iters) < 1:
            raise ConfigError("iteration budgets must be >= 1")
        if self.tol < 0:
            raise ConfigError("invalid convergence tolerance")
        if not self.init_depth > EPS_Z:  # the objective's depth precondition
            raise ConfigError(f"init_depth must exceed EPS_Z={EPS_Z}, got {self.init_depth}")
        if self.supervised_loss not in losses.SUPERVISED:
            raise ConfigError(f"unknown supervised_loss {self.supervised_loss!r}")
        if self.num_scales < 1 or self.seed < 0:
            raise ConfigError("invalid optimizer configuration")


@dataclass
class OptimState:
    log_depth: np.ndarray  # (H, W), log meters
    pose_params: np.ndarray  # (S, 6): alpha, beta, gamma, tx, ty, tz
    iteration: int = 0
    loss_history: list[LossBreakdown] = field(default_factory=list)

    def __post_init__(self):
        self.log_depth = np.asarray(self.log_depth, dtype=np.float64)
        self.pose_params = np.asarray(self.pose_params, dtype=np.float64)
        self.reset_moments()

    def reset_moments(self) -> None:
        self.m_depth = np.zeros_like(self.log_depth)
        self.v_depth = np.zeros_like(self.log_depth)
        self.m_pose = np.zeros_like(self.pose_params)
        self.v_pose = np.zeros_like(self.pose_params)
        self.adam_t = 0

    def depth(self) -> np.ndarray:
        return np.exp(self.log_depth)


def init_state(scene: Scene, config: OptimConfig) -> OptimState:
    """Constant log-depth at the configured guess; poses at a small seeded
    perturbation of the identity."""
    rng = np.random.default_rng(config.seed)
    n_ctx = len(scene.contexts)
    pose_params = np.zeros((n_ctx, 6))
    pose_params[:, :3] = rng.normal(0.0, POSE_INIT_ROT_STD, (n_ctx, 3))
    pose_params[:, 3:] = rng.normal(0.0, POSE_INIT_TRANS_STD, (n_ctx, 3))
    log_depth = np.full(scene.gt_depth.shape, math.log(config.init_depth))
    return OptimState(log_depth=log_depth, pose_params=pose_params)


def _adam_step(param, m, v, g, t, lr):
    """One Adam step of one parameter block: new parameters and moments."""
    m = BETA1 * m + (1 - BETA1) * g
    v = BETA2 * v + (1 - BETA2) * g**2
    m_hat = m / (1 - BETA1**t)
    v_hat = v / (1 - BETA2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + EPSILON), m, v


def adam_update(state: OptimState, d_log_depth: np.ndarray, d_poses: np.ndarray) -> None:
    """One Adam step on the state, in place. Zero gradients leave parameters
    untouched (the update is exactly zero)."""
    state.adam_t += 1
    t = state.adam_t
    state.log_depth, state.m_depth, state.v_depth = _adam_step(
        state.log_depth, state.m_depth, state.v_depth, d_log_depth, t, LR_DEPTH
    )
    state.pose_params, state.m_pose, state.v_pose = _adam_step(
        state.pose_params, state.m_pose, state.v_pose, d_poses, t, LR_POSE_PARAMS
    )


def step(state: OptimState, objective: losses.Objective) -> OptimState:
    """One optimization step against ``objective`` (built once for the scene,
    see `losses.Objective`), at the state's depth and poses.

    Depth gradients are chained through the log parameterization
    (d/dlog d = d * d/dd). Appends the loss breakdown to the history.
    """
    depth = state.depth()
    poses = [PoseSE3.from_params(params) for params in state.pose_params]
    breakdown, d_depth, d_poses = losses.total_loss_grad(objective, poses, depth)
    d_log = d_depth * depth
    if not (np.isfinite(d_log).all() and np.isfinite(d_poses).all()
            and np.isfinite(breakdown.total)):
        raise DivergedError(state.iteration)
    adam_update(state, d_log, d_poses)
    state.iteration += 1
    state.loss_history.append(breakdown)
    return state


@dataclass
class RunReport:
    median_ratio_a: float
    median_ratio_b: float
    iters_a: int
    iters_b: int
    final: LossBreakdown
    metrics_all: metrics.DepthMetrics
    metrics_unlabeled: metrics.DepthMetrics | None
    median_history: list[float] = field(default_factory=list)


def _median_ratio(state: OptimState, scene: Scene) -> float:
    return float(np.median(state.depth() / scene.gt_depth))


def _run_phase(state, scene, objective, budget, tol, median_history):
    start = state.iteration
    prev, flat = None, 0
    while state.iteration - start < budget:
        step(state, objective)
        median_history.append(_median_ratio(state, scene))
        cur = state.loss_history[-1].total
        if prev is not None and abs(cur - prev) <= tol * max(abs(prev), 1e-12):
            flat += 1
            if flat >= TOL_WINDOW:
                break
        else:
            flat = 0
        prev = cur
    return state.iteration - start


def run(scene: Scene, config: OptimConfig, out_dir=None) -> tuple[OptimState, RunReport]:
    """Two-phase optimization: unsupervised first, then label refinement.

    Builds one `losses.Objective` for the scene. Phase A runs it with the
    supervised weight at zero (`Objective.unsupervised`, which shares its
    static-pixel reference) and records the median predicted/true depth
    ratio (any positive value is admissible: the unsupervised objective
    cannot fix scale). Phase B runs the objective itself, whose supervised
    term pulls depth toward the labels' scale without necessarily reaching
    it (on the shipped example the ratio goes from 0.8105 to 0.8310).
    Writes the loss-curve and metrics CSVs and the estimated depth
    (``depth.pfm``) into ``out_dir`` when given.
    """
    if config.weights.lambda_rep <= 0:
        raise ConfigError("two-phase run needs a positive supervised weight")
    baselines = [np.linalg.norm(pose.translation_vector()) for _, pose in scene.contexts]
    if max(baselines) <= 1e-9:
        raise NoSupervisionError(
            "all context baselines are zero: reprojected distances are "
            "identical for any depth, no scale information exists"
        )

    state = init_state(scene, config)
    objective = losses.Objective(
        scene.target, [img for img, _ in scene.contexts], scene.intrinsics, config.weights,
        labels=scene.labels.depth, num_scales=config.num_scales,
        supervised=config.supervised_loss,
    )
    median_history: list[float] = []

    iters_a = _run_phase(state, scene, objective.unsupervised(), config.phase_a_iters,
                         config.tol, median_history)
    ratio_a = _median_ratio(state, scene)

    state.reset_moments()
    iters_b = _run_phase(state, scene, objective, config.phase_b_iters, config.tol,
                         median_history)
    ratio_b = _median_ratio(state, scene)

    pred = state.depth()
    metrics_all = metrics.evaluate(pred, scene.gt_depth)
    metrics_unlabeled = None
    unlabeled = (scene.labels.depth <= 0) & (scene.gt_depth > 0)
    if unlabeled.any():
        metrics_unlabeled = metrics.evaluate(pred, np.where(unlabeled, scene.gt_depth, 0.0))

    report = RunReport(
        median_ratio_a=ratio_a,
        median_ratio_b=ratio_b,
        iters_a=iters_a,
        iters_b=iters_b,
        final=state.loss_history[-1],
        metrics_all=metrics_all,
        metrics_unlabeled=metrics_unlabeled,
        median_history=median_history,
    )
    if out_dir is not None:
        write_history_csv(os.path.join(out_dir, "loss_history.csv"), state, median_history)
        with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.CSV_HEADER + "\n")
            fh.write(metrics_all.csv_row() + "\n")
        io_codecs.write_pfm(os.path.join(out_dir, "depth.pfm"), pred)
    return state, report


def write_history_csv(path, state: OptimState, median_history) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,photo,smooth,rep,total,median_ratio\n")
        for i, (bd, ratio) in enumerate(zip(state.loss_history, median_history), 1):
            fh.write(
                f"{i},{bd.photo!r},{bd.smooth!r},{bd.rep!r},{bd.total!r},{ratio!r}\n"
            )


@dataclass
class GradCheckReport:
    n_checked: int
    n_passed: int
    max_rel_err: float
    mean_rel_err: float
    tol: float
    passed: bool
    failures: list[tuple[str, int, float, float, float]] = field(default_factory=list)


# Absolute agreement floor for finite-difference checks: float64 objective
# values carry ~1e-15 of rounding jitter between two nearby evaluations,
# which the central difference amplifies by 1/(2h); gradients below this
# magnitude are not resolvable by FD and are compared absolutely instead.
FD_ATOL = 1e-9
FD_STEP = 1e-5  # central-difference step, in depth meters and pose parameters
FD_TOL = 1e-4  # relative agreement a probe needs to pass


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), FD_ATOL)


def gradcheck(
    scene: Scene,
    weights: LossWeights,
    n_samples: int = 24,
    seed: int = 0,
    terms: tuple[str, ...] = losses.TERMS,
    supervised: str = "rep",
    num_scales: int = 1,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Samples ``n_samples`` random depth pixels plus all pose parameters at a
    generic evaluation point (ground truth perturbed multiplicatively, poses
    jittered); a failure names its coordinate as ("depth", pixel) or
    ("pose", parameter). One `losses.Objective` of the scene, built from
    ``weights``, ``terms``, ``supervised`` and ``num_scales``, serves the
    gradient and every probe; ``terms`` selects the terms checked, alone or
    combined. An unknown term, no term or a selected term of weight 0 (which
    checks nothing) is a ConfigError. The point's poses are built once: the
    gradient evaluation and every depth probe share them, so a depth probe
    rebuilds no rotation. The gradient evaluation keeps a record
    (`losses._Record`), and each probe recomputes only what it moves,
    bit-identically (see `losses._evaluate`): a depth probe the warp and
    loss pixels around its depth pixel, every context and channel in one
    stacked pass, and the minimum over sources and the static mask there;
    a pose probe its whole context, one channel plane at a time, as the
    gradient evaluation scores every context; a level's smoothness or the
    supervised term only if their inputs moved. Passes when at least 99% of
    the probes satisfy |analytic - fd| <= FD_ATOL + FD_TOL * max(|analytic|,
    |fd|) at step FD_STEP; the floor covers gradients too small for float64
    central differences to resolve at that step.
    """
    h, tol = FD_STEP, FD_TOL
    if n_samples < 0:
        raise ConfigError(f"n_samples must be nonnegative, got {n_samples}")
    unweighted = [t for t in terms if getattr(weights, f"lambda_{t}", None) == 0.0]
    if unweighted or not terms:
        raise ConfigError(f"nothing to check: terms {list(terms)}, weight 0 for {unweighted}")
    objective = losses.Objective(
        scene.target, [img for img, _ in scene.contexts], scene.intrinsics, weights,
        labels=scene.labels.depth, num_scales=num_scales, supervised=supervised, terms=terms,
    )
    objective._recording = True  # the gradient evaluation's record, read by each probe
    rng = np.random.default_rng(seed)

    depth0 = scene.gt_depth * np.exp(rng.normal(0.0, 0.05, scene.gt_depth.shape))
    pose_params = np.stack([pose.as_params() for _, pose in scene.contexts])
    pose_params[:, :3] += rng.normal(0.0, 0.01, pose_params[:, :3].shape)
    pose_params[:, 3:] += rng.normal(0.0, 0.02, pose_params[:, 3:].shape)
    x0 = np.concatenate([depth0.reshape(-1), pose_params.reshape(-1)])
    n_depth = depth0.size
    poses0 = [PoseSE3.from_params(p) for p in pose_params]  # the point's, built once

    def evaluate(x, poses=None, loss=losses.total_loss):
        poses = poses or [PoseSE3.from_params(p) for p in x[n_depth:].reshape(pose_params.shape)]
        return loss(objective, poses, x[:n_depth].reshape(depth0.shape))

    _, d_depth, d_poses = evaluate(x0, poses0, losses.total_loss_grad)
    analytic = np.concatenate([d_depth.reshape(-1), d_poses.reshape(-1)])
    pixels = rng.choice(n_depth, size=min(n_samples, n_depth), replace=False)
    probes = [int(p) for p in pixels] + list(range(n_depth, x0.size))

    def fd_probe(i):
        poses = poses0 if i < n_depth else None  # a depth probe moves no pose
        x = x0.copy()
        x[i] += h
        f_plus = evaluate(x, poses).total
        x[i] -= 2 * h
        return (f_plus - evaluate(x, poses).total) / (2 * h)

    fd_values = [fd_probe(p) for p in probes]

    failures = []
    errs = []
    for i, a, fd in zip(probes, analytic[probes], fd_values):
        err = _rel_err(a, fd)
        errs.append(err)
        if abs(a - fd) > FD_ATOL + tol * max(abs(a), abs(fd)):
            coord = ("depth", i) if i < n_depth else ("pose", i - n_depth)
            failures.append((*coord, float(a), float(fd), float(err)))

    n_checked = len(probes)
    n_passed = n_checked - len(failures)
    return GradCheckReport(
        n_checked=n_checked,
        n_passed=n_passed,
        max_rel_err=float(max(errs)) if errs else 0.0,
        mean_rel_err=float(np.mean(errs)) if errs else 0.0,
        tol=tol,
        passed=n_passed >= math.ceil(0.99 * n_checked),
        failures=failures,
    )
