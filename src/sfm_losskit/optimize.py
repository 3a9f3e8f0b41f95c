"""Direct first-order optimization of per-pixel depth and context poses.

Depth is parameterized in log space (positivity by construction, symmetric
multiplicative steps); poses as 6 parameters per context frame. Updates use
Adam in its standard form

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
    param -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

with lr = lr_depth for depth, lr_pose for translations and lr_pose / 10 for
rotation angles.

`run` performs the two-phase schedule: phase A minimizes the unsupervised
objective (supervised weight zero) and lands somewhere on the scale valley;
phase B turns the supervised term on, whose gradient pulls depth toward the
labels' scale. Phase B need not reach that scale: on the shipped example
the median depth ratio barely moves during it. Each phase stops at its own
budget (phase_a_iters, phase_b_iters) or once the loss has changed by at
most tol (relative) for tol_window steps in a row. The optimizer state
between phases keeps depth/poses but restarts the Adam moments, mirroring
a fresh refinement run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import losses, metrics
from .errors import ConfigError, DivergedError, NoSupervisionError
from .geometry import PoseSE3
from .losses import LossBreakdown, LossWeights
from .synth import Scene

THREADS_ENV = "SFM_LOSSKIT_THREADS"


def thread_count() -> int:
    """Worker-thread cap from the environment (0 = all cores, unset = 1)."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ConfigError(f"{THREADS_ENV} must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


@dataclass
class OptimConfig:
    lr_depth: float = 0.02
    lr_pose: float = 5e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    phase_a_iters: int = 2000
    phase_b_iters: int = 1000
    tol: float = 1e-7
    tol_window: int = 25
    weights: LossWeights = field(default_factory=LossWeights)
    init_depth: float = 10.0
    pose_init_rot_std: float = 0.002
    pose_init_trans_std: float = 0.02
    supervised_loss: str = "rep"
    num_scales: int = 1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        # lr == 0 is admitted as the degenerate "frozen parameters" case
        if self.lr_depth < 0 or self.lr_pose < 0:
            raise ConfigError("learning rates must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if min(self.phase_a_iters, self.phase_b_iters) < 1:
            raise ConfigError("iteration budgets must be >= 1")
        if self.tol < 0 or self.tol_window < 1:
            raise ConfigError("invalid convergence tolerance")
        if self.init_depth <= 0:
            raise ConfigError("init_depth must be positive")
        if self.pose_init_rot_std < 0 or self.pose_init_trans_std < 0:
            raise ConfigError("pose_init_rot_std and pose_init_trans_std must be nonnegative")
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
    m_depth: np.ndarray | None = None
    v_depth: np.ndarray | None = None
    m_pose: np.ndarray | None = None
    v_pose: np.ndarray | None = None
    adam_t: int = 0

    def __post_init__(self):
        self.log_depth = np.asarray(self.log_depth, dtype=np.float64)
        self.pose_params = np.asarray(self.pose_params, dtype=np.float64)
        if self.m_depth is None:
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
    pose_params[:, :3] = rng.normal(0.0, config.pose_init_rot_std, (n_ctx, 3))
    pose_params[:, 3:] = rng.normal(0.0, config.pose_init_trans_std, (n_ctx, 3))
    log_depth = np.full(scene.gt_depth.shape, math.log(config.init_depth))
    return OptimState(log_depth=log_depth, pose_params=pose_params)


def _adam_step(param, m, v, g, t, lr, config: OptimConfig):
    """One Adam step of one parameter block: new parameters and moments."""
    b1, b2 = config.beta1, config.beta2
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g**2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + config.epsilon), m, v


def adam_update(state: OptimState, d_log_depth: np.ndarray, d_poses: np.ndarray,
                config: OptimConfig) -> None:
    """One Adam step on the state, in place. Zero gradients leave parameters
    untouched (the update is exactly zero)."""
    state.adam_t += 1
    t = state.adam_t
    state.log_depth, state.m_depth, state.v_depth = _adam_step(
        state.log_depth, state.m_depth, state.v_depth, d_log_depth, t, config.lr_depth, config
    )
    # Rotation angles live on a much finer scale than translations (a few
    # hundredths of a radian can mimic a whole baseline on planar scenes), so
    # they step 10x slower than the translations.
    lr_pose = np.array([config.lr_pose / 10.0] * 3 + [config.lr_pose] * 3)
    state.pose_params, state.m_pose, state.v_pose = _adam_step(
        state.pose_params, state.m_pose, state.v_pose, d_poses, t, lr_pose, config
    )


def step(
    state: OptimState,
    scene: Scene,
    config: OptimConfig,
    weights: LossWeights | None = None,
    unwarped_min: np.ndarray | None = None,
) -> OptimState:
    """One optimization step against the full objective.

    Depth gradients are chained through the log parameterization
    (d/dlog d = d * d/dd). Appends the loss breakdown to the history.
    """
    if weights is None:
        weights = config.weights
    depth = state.depth()
    context = [
        (img, PoseSE3.from_params(state.pose_params[s]))
        for s, (img, _) in enumerate(scene.contexts)
    ]
    labels = scene.labels.depth if scene.labels.n_labels else None
    breakdown, d_depth, d_poses = losses.total_loss_grad(
        scene.target, context, depth, scene.intrinsics, weights,
        labels=labels, num_scales=config.num_scales,
        supervised=config.supervised_loss, unwarped_min=unwarped_min,
    )
    d_log = d_depth * depth
    if not (np.isfinite(d_log).all() and np.isfinite(d_poses).all()
            and np.isfinite(breakdown.total)):
        raise DivergedError(state.iteration)
    adam_update(state, d_log, d_poses, config)
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


def _run_phase(state, scene, config, weights, budget, unwarped_min, median_history):
    start = state.iteration
    flat = 0
    while state.iteration - start < budget:
        prev = state.loss_history[-1].total if state.loss_history else None
        step(state, scene, config, weights=weights, unwarped_min=unwarped_min)
        median_history.append(_median_ratio(state, scene))
        cur = state.loss_history[-1].total
        if prev is not None and abs(cur - prev) <= config.tol * max(abs(prev), 1e-12):
            flat += 1
            if flat >= config.tol_window:
                break
        else:
            flat = 0
    return state.iteration - start


def run(scene: Scene, config: OptimConfig, out_dir=None) -> tuple[OptimState, RunReport]:
    """Two-phase optimization: unsupervised first, then label refinement.

    Phase A runs with the supervised weight forced to zero and records the
    median predicted/true depth ratio (any positive value is admissible:
    the unsupervised objective cannot fix scale). Phase B re-enables the
    supervised term, which pulls depth toward the labels' scale without
    necessarily reaching it. Writes loss-curve and metrics CSVs into
    ``out_dir`` when given.
    """
    if config.weights.lambda_rep <= 0:
        raise ConfigError("two-phase run needs a positive supervised weight")
    if scene.labels.n_labels == 0:
        raise NoSupervisionError("scene carries no depth labels")
    baselines = [np.linalg.norm(pose.translation_vector()) for _, pose in scene.contexts]
    if max(baselines) <= 1e-9:
        raise NoSupervisionError(
            "all context baselines are zero: reprojected distances are "
            "identical for any depth, no scale information exists"
        )

    state = init_state(scene, config)
    unwarped_min = losses.unwarped_min_photometric(
        scene.target, scene.contexts, config.weights.alpha
    )
    median_history: list[float] = []

    weights_a = replace(config.weights, lambda_rep=0.0)
    iters_a = _run_phase(
        state, scene, config, weights_a, config.phase_a_iters, unwarped_min, median_history
    )
    ratio_a = _median_ratio(state, scene)

    state.reset_moments()
    iters_b = _run_phase(
        state, scene, config, config.weights, config.phase_b_iters, unwarped_min,
        median_history,
    )
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


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), FD_ATOL)


def gradcheck(
    scene: Scene,
    weights: LossWeights,
    n_samples: int = 24,
    h: float = 1e-5,
    tol: float = 1e-4,
    seed: int = 0,
    terms: tuple[str, ...] = losses.TERMS,
    supervised: str = "rep",
    num_scales: int = 1,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Samples ``n_samples`` random depth pixels plus all pose parameters at a
    generic evaluation point (ground truth perturbed multiplicatively, poses
    jittered). ``terms`` selects which loss terms are active, so each can be
    verified in isolation as well as combined. Passes when at least 99% of the checked coordinates satisfy
    |analytic - fd| <= FD_ATOL + tol * max(|analytic|, |fd|); the absolute
    floor covers gradients too small for float64 central differences to
    resolve at the given step.
    """
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"finite-difference step h must be positive and finite, got {h}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be nonnegative and finite, got {tol}")
    if n_samples < 0:
        raise ConfigError(f"n_samples must be nonnegative, got {n_samples}")
    unknown = set(terms) - set(losses.TERMS)
    if unknown:
        raise ConfigError(f"unknown loss terms {sorted(unknown)}")
    rng = np.random.default_rng(seed)

    depth0 = scene.gt_depth * np.exp(rng.normal(0.0, 0.05, scene.gt_depth.shape))
    pose_params = np.stack([pose.as_params() for _, pose in scene.contexts])
    pose_params[:, :3] += rng.normal(0.0, 0.01, pose_params[:, :3].shape)
    pose_params[:, 3:] += rng.normal(0.0, 0.02, pose_params[:, 3:].shape)

    labels = scene.labels.depth if scene.labels.n_labels else None
    images = [img for img, _ in scene.contexts]
    k = scene.intrinsics
    unwarped = None
    if "photo" in terms:
        unwarped = losses.unwarped_min_photometric(scene.target, scene.contexts, weights.alpha)

    def total_at(depth, params):
        ctx = [(img, PoseSE3.from_params(p)) for img, p in zip(images, params)]
        return losses.total_loss(
            scene.target, ctx, depth, k, weights, labels=labels,
            num_scales=num_scales, supervised=supervised, unwarped_min=unwarped,
            terms=terms,
        ).total

    ctx0 = [(img, PoseSE3.from_params(p)) for img, p in zip(images, pose_params)]
    _, d_depth, d_poses = losses.total_loss_grad(
        scene.target, ctx0, depth0, k, weights, labels=labels,
        num_scales=num_scales, supervised=supervised, unwarped_min=unwarped,
        terms=terms,
    )

    hgt, wid = depth0.shape
    pixels = rng.choice(hgt * wid, size=min(n_samples, hgt * wid), replace=False)
    probes = [("depth", int(p)) for p in pixels]
    probes += [("pose", i) for i in range(pose_params.size)]

    def fd_probe(probe):
        kind, idx = probe
        if kind == "depth":
            dp = depth0.copy().reshape(-1)
            dp[idx] += h
            f_plus = total_at(dp.reshape(hgt, wid), pose_params)
            dp[idx] -= 2 * h
            f_minus = total_at(dp.reshape(hgt, wid), pose_params)
        else:
            pp = pose_params.copy().reshape(-1)
            pp[idx] += h
            f_plus = total_at(depth0, pp.reshape(pose_params.shape))
            pp[idx] -= 2 * h
            f_minus = total_at(depth0, pp.reshape(pose_params.shape))
        return (f_plus - f_minus) / (2 * h)

    workers = thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fd_values = list(pool.map(fd_probe, probes))
    else:
        fd_values = [fd_probe(p) for p in probes]

    failures = []
    errs = []
    for probe, fd in zip(probes, fd_values):
        kind, idx = probe
        analytic = d_depth.reshape(-1)[idx] if kind == "depth" else d_poses.reshape(-1)[idx]
        err = _rel_err(analytic, fd)
        errs.append(err)
        if abs(analytic - fd) > FD_ATOL + tol * max(abs(analytic), abs(fd)):
            failures.append((kind, idx, float(analytic), float(fd), float(err)))

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
