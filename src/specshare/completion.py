"""Low-rank matrix completion and recovery-error evaluation.

The completer minimizes mu*||X||_* + 0.5*||P_Omega(X - observed)||_F^2 by
accelerated proximal gradient descent with singular-value soft thresholding,
using continuation on the penalty (mu is lowered geometrically toward its
target, warm-starting each stage); the radar pipeline wraps it into the
end-to-end recovery experiment, whose trials it completes on the CPUs the
process may use: the caller completes one part of them and a forked worker
process each other part.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .interference import MetricError
from .linalg import gram_spectrum, psd_sqrt
from .scenario import generate_phase_offsets, radar_truth, synthesize_radar_rx

# Iterations per continuation stage, and the geometric factor of the mu
# schedule (see _mu_schedule).
_MAX_ITERATIONS = 500
_CONTINUATION = 0.1


@dataclass
class CompletionParams:
    mu: float | None = None          # None: 1e-4 * sigma1(observed)
    mu_rel: float = 1e-4
    tolerance: float = 1e-5

    def __post_init__(self):
        # Written so that NaN fails each test.
        if self.mu is not None and not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if not 0.0 < self.mu_rel < math.inf:
            raise ValueError("mu_rel must be positive and finite")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass
class RecoveryReport:
    relative_error: float
    iterations: int
    converged: bool


def shrink(X: np.ndarray, threshold: float):
    """Singular-value soft thresholding: sigma_i -> (sigma_i - t)^+.

    Returns the thresholded matrix and its singular values (the latter sum
    to its nuclear norm). Both come from the Hermitian eigendecomposition
    of the narrow-side Gram matrix A^H A: the result is
    A V_k diag((sigma_k - t)/sigma_k) V_k^H over the kept sigma_k > t. A kept
    value is exact to about eps*sigma1^2/sigma_k absolute, so relative to
    itself to about eps*(sigma1/t)^2 or better; the completer's thresholds
    are at least mu >= mu_rel*sigma1.
    """
    sigma, A, V = gram_spectrum(X)
    s = np.maximum(sigma - threshold, 0.0)
    k = int(np.count_nonzero(s))
    Vk = V[:, :k]
    Z = ((A @ Vk) * (s[:k] / sigma[:k])) @ Vk.conj().T
    return (Z.conj().T if A is not X else Z), s


def _mu_schedule(sigma1: float, mu_final: float, continuation: float) -> list:
    """Penalty schedule: start near sigma1 and decay geometrically to the target.

    A geometric stage within 1e-9 relative of mu_final (continuation**k *
    sigma1 rounding just above mu_rel * sigma1) is dropped, so the schedule
    is strictly decreasing and ends with one stage at mu_final.
    """
    mus = []
    mu = continuation * sigma1
    while mu > mu_final * (1.0 + 1e-9):
        mus.append(mu)
        mu *= continuation
    mus.append(mu_final)
    return mus


def complete(
    observed: np.ndarray,
    omega: np.ndarray,
    params: CompletionParams | None = None,
    objective_trace: list | None = None,
):
    """Nuclear-norm completion of the entries marked by the binary mask omega.

    Returns (estimate, iterations, converged). Requires a mask of 0s and
    1s with at least one observed entry in every row and column. Accepted
    iterates never increase the objective within a continuation stage
    (monotone accelerated proximal gradient); pass a list as
    objective_trace to record the accepted objective value at every
    iteration.
    """
    if params is None:
        params = CompletionParams()
    if omega.shape != observed.shape:
        raise ValueError("mask and observation shapes differ")
    seen = omega == 1.0
    if not np.all(seen | (omega == 0.0)):
        raise ValueError("mask entries must be 0 or 1")
    if seen.sum(axis=1).min() < 1 or seen.sum(axis=0).min() < 1:
        raise ValueError("mask has an empty row or column; completion impossible")
    masked = omega * observed
    if np.linalg.norm(masked) == 0.0:
        return np.zeros_like(observed), 0, True
    sigma1 = float(gram_spectrum(masked)[0][0])
    mu_final = params.mu if params.mu is not None else params.mu_rel * sigma1
    mus = _mu_schedule(sigma1, mu_final, _CONTINUATION)
    where = np.flatnonzero(seen)
    observed_entries = observed.ravel()[where]

    def objective(mat, mu, nuc=None):
        if nuc is None:
            nuc = float(gram_spectrum(mat)[0].sum())
        r = mat.ravel()[where] - observed_entries
        return mu * nuc + 0.5 * float(np.vdot(r, r).real)

    X = np.zeros_like(observed)
    total = 0
    converged = False
    for mu in mus:
        # Monotone accelerated proximal gradient, warm-started from the
        # previous stage: the shrinkage step Z is accepted only when it
        # lowers the objective, while momentum always follows Z. The
        # gradient step is 1, since P_Omega(Y - observed) is 1-Lipschitz,
        # so Y - P_Omega(Y - observed) takes the observed entries on the
        # mask and keeps Y off it.
        Y = X
        t = 1.0
        obj = objective(X, mu)
        converged = False
        for _ in range(_MAX_ITERATIONS):
            Z, s = shrink(np.where(seen, observed, Y), mu)
            obj_Z = objective(Z, mu, nuc=float(s.sum()))
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            # The momentum step X + (t/t_new)(Z - X) + ((t-1)/t_new)(X - X_prev),
            # X_prev the iterate before this step, keeps one term: an
            # accepted Z leaves Z + ((t-1)/t_new)(Z - X_prev), a rejected
            # one X + (t/t_new)(Z - X). Either difference is step, the
            # change the stop test measures.
            step = Z - X
            if obj_Z <= obj:
                X, obj = Z, obj_Z
                Y = Z + ((t - 1.0) / t_new) * step
            else:
                Y = X + (t / t_new) * step
            t = t_new
            total += 1
            if objective_trace is not None:
                objective_trace.append(obj)
            change = math.sqrt(np.vdot(step, step).real / max(np.vdot(Z, Z).real, 1e-300))
            if change < params.tolerance:
                converged = True
                break
    return X, total, converged


def relative_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    """||truth - estimate||_F / ||truth||_F."""
    if truth.shape != estimate.shape:
        raise ValueError("shape mismatch")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise MetricError("relative error undefined for zero truth")
    return float(np.linalg.norm(truth - estimate) / denom)


@dataclass
class PipelineStats:
    mean_error: float
    std_error: float
    reports: list


def _trial(observed, omega, params, truth) -> RecoveryReport:
    """Complete one trial's observation and score it against the truth."""
    estimate, iterations, converged = complete(observed, omega, params)
    return RecoveryReport(
        relative_error=relative_error(truth, estimate),
        iterations=iterations,
        converged=converged,
    )


def _cpu_share(trials: int) -> int:
    """How many CPUs complete the trials: the caller and n - 1 fork workers.

    n is the number of CPUs the process may use (its affinity mask, which
    taskset sets), at most one per trial. It is 1 where a worker cannot be
    forked safely: no fork start method, a daemonic caller (which may not
    have children), or a caller running other threads (a forked child
    holds no copy of them, nor of the locks they hold), a BLAS library's
    own pool included (_thread_count). _complete_trials starts no thread,
    so a call never finds one left by the call before it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    n = min(cpus, trials)
    if n > 1:
        import multiprocessing

        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon
                or _thread_count() > 1):
            return 1
    return n


def _thread_count() -> int:
    """The threads of this process: its OS threads where /proc/self/task
    lists them, a native library's own (an unpinned OpenBLAS pool)
    included; else its Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _work(send, observations, omega, params, truth) -> None:
    """A fork worker's body: send the reports of its trials, or the error
    one of them raised, which the caller raises in turn."""
    try:
        send.send([_trial(obs, omega, params, truth) for obs in observations])
    except Exception as exc:
        send.send(exc)


def _complete_trials(observations, omega, params, truth) -> list:
    """The trials' reports, in trial order, completed on _cpu_share CPUs.

    With n CPUs the trials are cut into n contiguous parts, the first
    len % n of them one trial longer: the caller completes the last part,
    len // n trials, in-process, and one fork worker each of the others.
    The split is fixed, so the caller's own complete calls, which a
    profiler in it sees, are the same on every run. A fork worker shares
    the caller's code and data, so every report equals the in-process one
    bit for bit. The workers exist only inside this call: when it returns
    or raises, they are killed and reaped. A worker sends back the error a
    trial raised, and one that exits without sending its reports makes the
    call raise EOFError. Every error a trial can raise depends only on
    what all trials share: omega and its shape (an empty row or column),
    the truth (zero), and the message of a failed eigh. So whichever trial
    fails first raises what a loop in trial order raises.
    """
    *parts, last = np.array_split(np.arange(len(observations)), _cpu_share(len(observations)))
    workers = []
    try:
        for part in parts:
            import multiprocessing

            recv, send = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.get_context("fork").Process(target=_work, args=(
                send, [observations[i] for i in part], omega, params, truth))
            worker.start()
            workers.append((worker, recv))
            send.close()  # the worker holds the only sending end: its exit is an EOF
        own = [_trial(observations[i], omega, params, truth) for i in last]
        theirs = [recv.recv() for _, recv in workers]
        for reports in theirs:
            if isinstance(reports, Exception):
                raise reports
        return [report for reports in theirs for report in reports] + own
    finally:
        for worker, recv in workers:
            worker.kill()
            worker.join()
            recv.close()


def radar_pipeline(
    cfg: ScenarioConfig,
    D: np.ndarray,
    S: np.ndarray,
    G2: np.ndarray,
    schedule: np.ndarray,
    omega: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    params: CompletionParams | None = None,
) -> PipelineStats:
    """End-to-end recovery experiment for a fixed design.

    Per trial: draw codewords x(l) = R_xl^{1/2} * randn, synthesize the
    masked radar data matrix with fresh phases and noise, complete it and
    score against the noiseless ground truth (scenario.radar_truth). Every
    trial's draws are made first, in trial order; the trials are then
    completed on the CPUs the process may use, with the same reports for
    any number of them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    roots = psd_sqrt(schedule)
    L = len(schedule)
    truth = radar_truth(cfg, D, S)
    observations = []
    for _ in range(trials):
        # Row l of z holds the real and imaginary parts of symbol l's draw,
        # in the order L successive crandn(rng, M_tC) calls take them.
        z = rng.standard_normal((L, 2, cfg.M_tC))
        v = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
        X = (roots @ v[:, :, None])[:, :, 0].T
        _, alpha2 = generate_phase_offsets(cfg, rng)
        observations.append(synthesize_radar_rx(cfg, D, S, G2, X, alpha2, omega, rng))
    reports = _complete_trials(observations, omega, params, truth)
    errs = np.array([r.relative_error for r in reports])
    return PipelineStats(
        mean_error=float(errs.mean()),
        std_error=float(errs.std(ddof=1)) if trials > 1 else 0.0,
        reports=reports,
    )
