"""Low-rank matrix completion and recovery-error evaluation.

The completer minimizes mu*||X||_* + 0.5*||P_Omega(X - observed)||_F^2 by
accelerated proximal gradient descent with singular-value soft thresholding,
using continuation on the penalty (mu is lowered geometrically toward its
target, warm-starting each stage); the radar pipeline wraps it into the
end-to-end recovery experiment, whose trials it completes on the CPUs the
process may use: the caller completes one part of them and a worker made by
os.fork each other part, which pickles its reports back through a pipe.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .interference import MetricError
from .linalg import gram_spectrum, psd_sqrt
from .scenario import covers, draw_trials, radar_truth, synthesize_radar_rx

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
):
    """Nuclear-norm completion of the entries marked by the binary mask omega.

    Returns (estimate, iterations, converged). Requires a mask of 0s and
    1s; one that leaves a row or column empty (scenario.covers) is a
    MetricError. Accepted iterates never increase the objective within a
    continuation stage (monotone accelerated proximal gradient). An
    iterate's singular values are computed once, by its shrink; the
    accepted iterate carries its objective into the next stage.
    """
    if params is None:
        params = CompletionParams()
    if omega.shape != observed.shape:
        raise ValueError("mask and observation shapes differ")
    seen = omega == 1.0
    if not np.all(seen | (omega == 0.0)):
        raise ValueError("mask entries must be 0 or 1")
    if not covers(omega):
        raise MetricError("mask has an empty row or column; completion impossible")
    masked = omega * observed
    with np.errstate(over="ignore"):
        energy = np.vdot(masked, masked).real
    if not math.isfinite(energy):
        raise MetricError("observation's squared norm is not finite")
    if energy == 0.0:
        return np.zeros_like(observed), 0, True
    sigma1 = float(gram_spectrum(masked)[0][0])
    mu_final = params.mu if params.mu is not None else params.mu_rel * sigma1
    mus = _mu_schedule(sigma1, mu_final, _CONTINUATION)
    where = np.flatnonzero(seen)
    observed_entries = observed.ravel()[where]

    def residual(mat):
        r = mat.ravel()[where] - observed_entries
        return 0.5 * float(np.vdot(r, r).real)

    X = np.zeros_like(observed)
    nuc, res = 0.0, residual(X)  # X's nuclear norm and residual
    total = 0
    for mu in mus:
        # Monotone accelerated proximal gradient, warm-started from the
        # previous stage: the shrinkage step Z is accepted only when it
        # lowers the objective, while momentum always follows Z. The
        # gradient step is 1, since P_Omega(Y - observed) is 1-Lipschitz,
        # so Y - P_Omega(Y - observed) takes the observed entries on the
        # mask and keeps Y off it.
        Y = X
        t = 1.0
        obj = mu * nuc + res
        converged = False
        for _ in range(_MAX_ITERATIONS):
            Z, s = shrink(np.where(seen, observed, Y), mu)
            nuc_Z, res_Z = float(s.sum()), residual(Z)
            obj_Z = mu * nuc_Z + res_Z
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            # The momentum step X + (t/t_new)(Z - X) + ((t-1)/t_new)(X - X_prev),
            # X_prev the iterate before this step, keeps one term: an
            # accepted Z leaves Z + ((t-1)/t_new)(Z - X_prev), a rejected
            # one X + (t/t_new)(Z - X). Either difference is step, the
            # change the stop test measures.
            step = Z - X
            if obj_Z <= obj:
                X, obj, nuc, res = Z, obj_Z, nuc_Z, res_Z
                Y = Z + ((t - 1.0) / t_new) * step
            else:
                Y = X + (t / t_new) * step
            t = t_new
            total += 1
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
    forked safely: no os.fork on this platform, or a caller running other
    threads (a forked child holds no copy of them, nor of the locks they
    hold), a BLAS library's own pool included (_thread_count).
    _complete_trials starts no thread, so a call never finds one left by
    the call before it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    n = min(cpus, trials)
    if n > 1 and (not hasattr(os, "fork") or _thread_count() > 1):
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
    """A fork worker's body: pickle to send the reports of its trials, or
    the error one of them raised, which the caller raises in turn. It never
    returns: the worker leaves through os._exit, with code 0 once it has
    sent, so no exit handler of the caller's runs in it and no buffer of
    the caller's is written twice."""
    code = 1
    try:
        try:
            reports = [_trial(obs, omega, params, truth) for obs in observations]
        except Exception as exc:
            reports = exc
        pickle.dump(reports, send)
        send.flush()
        code = 0
    finally:
        os._exit(code)


def _complete_trials(observations, omega, params, truth) -> list:
    """The trials' reports, in trial order, completed on _cpu_share CPUs.

    With n CPUs the trials are cut into n contiguous parts, the first
    len % n of them one trial longer: the caller completes the last part,
    len // n trials, in-process, and one fork worker each of the others,
    which pickles its reports to the caller through a pipe. The split is
    fixed, so the caller's own complete calls, which a profiler in it sees,
    are the same on every run. A fork worker shares the caller's code and
    data, so every report equals the in-process one bit for bit. The
    workers exist only inside this call: when it returns or raises, they
    are killed and reaped. A worker sends back the error a trial raised,
    and one that exits without sending its reports makes the call raise an
    EOFError that names its pid and exit code. Every error a trial can
    raise depends only on what all trials share: omega and its shape (an
    empty row or column), the truth (zero), and the message of a failed
    eigh. So whichever trial fails first raises what a loop in trial order
    raises.
    """
    *parts, last = np.array_split(observations, _cpu_share(len(observations)))
    pids, readers = [], []  # readers[i] is the pipe from worker pids[i]
    try:
        for part in parts:
            recv, send = os.pipe()
            readers.append(open(recv, "rb"))
            # The caller closes its sending end before the next fork, so the
            # worker holds the only one: its exit is an EOF.
            with open(send, "wb") as sending:
                pid = os.fork()
                if pid == 0:
                    _work(sending, part, omega, params, truth)
            pids.append(pid)
        own = [_trial(observed, omega, params, truth) for observed in last]
        theirs = []
        for i, reader in enumerate(readers):
            try:
                theirs.append(pickle.load(reader))
            except EOFError:
                pid, status = os.waitpid(pids.pop(i), 0)
                raise EOFError(f"trial worker {pid} exited with code "
                               f"{os.waitstatus_to_exitcode(status)} before sending its reports"
                               ) from None
        for reports in theirs:
            if isinstance(reports, Exception):
                raise reports
        return [report for reports in theirs for report in reports] + own
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def radar_pipeline(
    cfg: ScenarioConfig,
    S: np.ndarray,
    G2: np.ndarray,
    X: np.ndarray,
    d: np.ndarray,
    omega: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    params: CompletionParams | None = None,
) -> PipelineStats:
    """End-to-end recovery experiment for a fixed design, given as its
    factors: R_xl = X_l diag(d_l) X_l^H (DesignSolution.X and .d).

    Per trial: codewords x(l) = R_xl^{1/2} * randn, the masked radar data
    of cfg's targets (scenario.generate_target_response) with fresh phases
    and noise, its completion and its error against the noiseless ground
    truth (scenario.radar_truth). One draw_trials call
    draws every trial and one synthesis makes their stacked data, whose
    trials are completed on the CPUs the process may use, with the same
    reports for any number of them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    v, alpha2, noise = draw_trials(cfg, trials, rng)
    root = psd_sqrt((X * d[:, None, :]) @ np.swapaxes(X, -1, -2).conj())
    codewords = np.swapaxes((root @ v[..., None])[..., 0], -1, -2)
    observations = synthesize_radar_rx(cfg, S, G2, codewords, alpha2, omega, noise)
    reports = _complete_trials(observations, omega, params, radar_truth(cfg, S))
    errs = np.array([r.relative_error for r in reports])
    return PipelineStats(
        mean_error=float(errs.mean()),
        std_error=float(errs.std(ddof=1)) if trials > 1 else 0.0,
        reports=reports,
    )
