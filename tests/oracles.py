"""Independent reference implementations for the tests.

They evaluate by other routes what the library computes: the EIP_II trace
form and a Monte-Carlo estimate of the masked interference power drawn
from the signal model itself (specshare.interference computes both through
its one weighted form), the recovery trials' radar data drawn and
synthesized one trial at a time (specshare.completion draws and
synthesizes every trial as one stack), singular-value soft thresholding
and the dual step of the covariance design through a thin SVD
(specshare.completion and specshare.covdesign go through a Gram
eigendecomposition), the
completion at a fixed penalty iterated by plain proximal gradient until a
fixed-point certificate holds (specshare.completion stops accelerated
continuation stages on a step-size rule), the accelerated completion with
its gradient and momentum steps as the formulas read (specshare.completion
takes the observed entries by a mask lookup and keeps one momentum term),
the feasibility of a capacity
target by classic water-filling of the power budget (specshare.covdesign
asks whether the minimum-power design fits in the budget), a feasibility
and optimality report of a returned design recomputed from its
covariances (specshare.covdesign checks its own post-conditions once, as
it solves, on the design's factors), the comm channel and the dense comm
noise covariances re-derived from a config's named streams, the dense
forms of the whitening by an eigendecomposition, of the interference
profile and of the capacity, and a 40-digit mpmath capacity (specshare
whitens once, in closed form, as it makes a scenario, and carries the
designs as factors), that closed form one symbol at a time as the
formula reads (specshare forms it for all symbols at once, by expm1 and
log1p), and a Floyd-Warshall bound on the cycle weights of an assignment
candidate (specshare.samplingopt certifies a candidate by a
Bellman-Ford cycle search). Only the tests use them.
"""

import types

import numpy as np

from specshare import scenario
from specshare.completion import _CONTINUATION, _MAX_ITERATIONS, _mu_schedule, shrink
from specshare.config import Scheme
from specshare.covdesign import min_capacity_multiplier, solve_weighted_eip
from specshare.interference import MetricError, weighted_eip
from specshare.linalg import crandn, eig_floor, gram_spectrum, hermitize, psd_sqrt
from specshare.scenario import (generate_channels, generate_waveforms, noiseless_radar_return,
                                resolve_sigma_R2)
from specshare.streams import stream


def comm_noise_factors(cfg):
    """(H, g, a): the comm channel H and the factors of the comm noise
    R_wl = sigma_C2 I + a g_l g_l^H, row l of g the radar interference
    G1 s(l) and a = rho2 sigma_alpha2, re-derived from cfg.seed's named
    streams (generate_channels, generate_waveforms)."""
    H, G1, _ = generate_channels(cfg, stream(cfg.seed, "channels"))
    S = generate_waveforms(cfg, stream(cfg.seed, "waveforms"))
    return H, (G1 @ S).T, float(cfg.rho2) * float(cfg.sigma_alpha2)


def dense_noise(g, a: float, sigma_C2: float) -> np.ndarray:
    """The (L, M_rC, M_rC) stack R_wl = sigma_C2 I + a g_l g_l^H, formed as
    a matrix."""
    eye = sigma_C2 * np.eye(g.shape[1])
    return hermitize(a * (g[:, :, None] * g.conj()[:, None, :]) + eye)


def whiten(H, g, a: float, sigma_C2: float) -> np.ndarray:
    """B_l = R_wl^{-1/2} H of the noise R_wl = sigma_C2 I + a g_l g_l^H
    given as factors, by the scenario's own closed form (not an oracle):
    with G1 = g^T and S = I, g_l = G1 s(l)."""
    cfg = types.SimpleNamespace(rho2=a, sigma_alpha2=1.0, sigma_C2=sigma_C2)
    return scenario._whiten(cfg, H, g.T, np.eye(len(g)))


def closed_form_whiten(H, G1, S, a: float, sigma_C2: float) -> np.ndarray:
    """B_l = R_wl^{-1/2} H of R_wl = sigma_C2 I + a g_l g_l^H, g_l = G1 s(l),
    one symbol at a time as the formula reads: sigma_C^{-1} (I - c_l u_l
    u_l^H) H with u_l = g_l / ||g_l|| and c_l = 1 - (1 + a ||g_l||^2 /
    sigma_C2)^{-1/2} (sigma_C2 > 0)."""
    B = []
    for g in (G1 @ S).T:
        u = g / np.linalg.norm(g)
        c = 1.0 - 1.0 / np.sqrt(1.0 + a * np.linalg.norm(g) ** 2 / sigma_C2)
        B.append((H - c * np.outer(u, u.conj() @ H)) / np.sqrt(sigma_C2))
    return np.stack(B)


def comm_link(cfg):
    """(H, R_w): the comm channel and the dense (L, M_rC, M_rC) comm noise
    stack of cfg's scenario, re-derived (comm_noise_factors)."""
    H, g, a = comm_noise_factors(cfg)
    return H, dense_noise(g, a, float(cfg.sigma_C2))


def psd_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian PD matrix, or of each matrix in a
    stack, through its eigendecomposition with eig_floor's eigenvalue floor."""
    w, v = np.linalg.eigh(hermitize(a))
    w = eig_floor(w)
    return (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def dense_whiten(H, noise_stack) -> np.ndarray:
    """Whitened channels R_wl^{-1/2} H of a dense (L, m, m) noise stack."""
    return psd_inv_sqrt(noise_stack) @ H


def dense_profile(G2, schedule) -> np.ndarray:
    """Q with column l the diagonal of G2 R_l G2^H (M_rR x L), from a dense
    (L, n, n) covariance stack."""
    return np.einsum("ij,ljk,ik->il", G2, schedule, G2.conj()).real


def dense_capacity(schedule, H, noise_stack) -> float:
    """(1/L) sum_l log2 |I + R_wl^{-1} H R_l H^H| as log det(R_wl + H R_l H^H)
    - log det(R_wl), from dense stacks."""
    _, logdet_n = np.linalg.slogdet(noise_stack)
    _, logdet_f = np.linalg.slogdet(noise_stack + H @ schedule @ H.conj().T)
    return float(np.sum((logdet_f - logdet_n) / np.log(2.0))) / len(schedule)


def mp_capacity(H, g, a: float, sigma_C2: float, X, d, dps: int = 40) -> float:
    """(1/L) sum_l log2 |I + R_wl^{-1} H R_l H^H| computed by mpmath at dps
    digits, the float64 inputs taken as exact: the noise factors
    R_wl = sigma_C2 I + a g_l g_l^H and the design R_l = X_l diag(d_l) X_l^H."""
    import mpmath

    with mpmath.workdps(dps):
        Hm = mpmath.matrix(H.tolist())
        total = mpmath.mpf(0)
        for g_l, X_l, d_l in zip(g, X, d):
            gm = mpmath.matrix(g_l.tolist())
            R_w = sigma_C2 * mpmath.eye(len(g_l)) + a * gm * gm.H
            F = mpmath.matrix(X_l.tolist()) * mpmath.diag([mpmath.sqrt(x) for x in d_l.tolist()])
            HF = Hm * F
            total += mpmath.log(mpmath.det(R_w + HF * HF.H) / mpmath.det(R_w), 2).real
        return float(total / len(X))


def dense_schedule(X, d) -> np.ndarray:
    """The dense (L, n, n) covariance stack R_l = X_l diag(d_l) X_l^H of a
    design's factors, hermitized."""
    return hermitize((X * d[:, None, :]) @ np.swapaxes(X, -1, -2).conj())


def factored(schedule):
    """(X, d) with R_l = X_l diag(d_l) X_l^H, d >= 0, of a dense PSD stack,
    from its eigendecomposition (eigenvalues clipped at 0)."""
    d, X = np.linalg.eigh(hermitize(schedule))
    return X, np.clip(d, 0.0, None)


def eip_scheme2_trace_form(mask, S, G2, schedule) -> float:
    """Equivalent trace form Tr(Omega^T Q (S o conj(S))^T)."""
    if mask.shape != (G2.shape[0], S.shape[0]):
        raise MetricError("mask is not Scheme-II shaped")
    Q = dense_profile(G2, schedule)
    s_abs2 = np.abs(S) ** 2
    return float(np.trace(mask.T @ Q @ s_abs2.T).real)


def eip_samples(cfg, mask, G2, S, schedule, trials: int, rng) -> np.ndarray:
    """Masked interference power of `trials` independent realizations.

    Each trial draws x(l) ~ CN(0, R_xl) for l = 0 .. L-1 (the real then the
    imaginary parts of crandn, symbol by symbol) and then L fresh phase
    offsets, and evaluates the masked power directly from the signal model.
    All trials are drawn in one call and evaluated as stacked arrays; the
    normals come in the same order as trial-by-trial crandn calls, and each
    sample is bit-equal to the one a loop over trials and symbols computes.
    """
    if trials < 1:
        raise MetricError("trials must be >= 1")
    roots = psd_sqrt(schedule)  # (L, n_tx, n_tx)
    L, n_tx = roots.shape[0], roots.shape[1]
    draws = rng.standard_normal((trials, 2 * L * n_tx + L))
    parts = draws[:, : 2 * L * n_tx].reshape(trials, L, 2, n_tx)
    v = (parts[:, :, 0] + 1j * parts[:, :, 1]) / np.sqrt(2.0)
    # Contiguous (trials, n_tx, L), laid out like the loop's per-trial X: a
    # transposed view sends G2 @ X down another BLAS path when M_rR = 1,
    # which rounds differently.
    X = np.ascontiguousarray(np.swapaxes((roots @ v[..., None])[..., 0], -1, -2))
    lam2 = np.exp(1j * np.sqrt(cfg.sigma_alpha2) * draws[:, 2 * L * n_tx:])
    interf = (G2 @ X) * lam2[:, None, :]
    if cfg.scheme is Scheme.SCHEME_I:
        masked = mask * interf
    else:
        masked = mask * (interf @ S.conj().T)
    return np.sum((np.abs(masked) ** 2).reshape(trials, -1), axis=1)


def empirical_eip(cfg, mask, G2, S, schedule, trials: int, rng):
    """Monte-Carlo estimate of the masked interference power:
    (mean, standard error) over eip_samples."""
    samples = eip_samples(cfg, mask, G2, S, schedule, trials, rng)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def looped_observations(cfg, S, G2, schedule, omega, trials: int, rng) -> np.ndarray:
    """The masked radar data of `trials` recovery trials, drawn and
    synthesized one trial at a time: per trial the (L, 2, M_tC) codeword
    normals, alpha1 then alpha2 of L each, crandn(rng, M_rR, L) noise, and
    Omega o (gamma*rho*D*S + G2*X*diag(exp(j alpha2)) + sigma_R*W_R), times
    S^H under Scheme II before the mask, with D cfg's target response.
    Stacked along a leading trial axis."""
    roots = psd_sqrt(schedule)
    sd = np.sqrt(cfg.sigma_alpha2)
    observations = []
    for _ in range(trials):
        z = rng.standard_normal((cfg.L, 2, cfg.M_tC))
        X = (roots @ ((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))[:, :, None])[:, :, 0].T
        rng.standard_normal(cfg.L)  # alpha1, drawn and dropped
        alpha2 = sd * rng.standard_normal(cfg.L)
        W_R = np.sqrt(resolve_sigma_R2(cfg, S)) * crandn(rng, cfg.M_rR, cfg.L)
        Y_R = noiseless_radar_return(cfg, S) + (G2 @ X) * np.exp(1j * alpha2) + W_R
        if cfg.scheme is Scheme.SCHEME_II:
            Y_R = Y_R @ S.conj().T
        observations.append(omega * Y_R)
    return np.stack(observations)


def svd_shrink(X, threshold: float):
    """Singular-value soft thresholding through a thin SVD: the thresholded
    matrix and its singular values (sigma_i - t)^+, descending."""
    u, s, vh = np.linalg.svd(X, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    return (u * s) @ vh, s


def svd_dual_step(kernel, lambda1: float, C: float):
    """One dual evaluation of a covdesign._DualKernel at lambda1 > 0 through a
    thin SVD of the whitened channels B_l diag(d_l^{-1/2}), d_l =
    eig_floor(a_l + lambda1), as the solver computed it before the Gram
    eigendecomposition: (gains s^2, lambda2, power, beta, covariances) of
    the unscaled subproblem, beta and the gains descending per symbol."""
    d_isqrt = 1.0 / np.sqrt(eig_floor(kernel.a + lambda1))
    _, s, vh = np.linalg.svd(kernel.B * d_isqrt[:, None, :], full_matrices=False)
    lambda2 = min_capacity_multiplier(s.ravel(), C, s.shape[0])
    gain = s**2
    inv_gain = np.divide(1.0, gain, out=np.full_like(gain, np.inf),
                         where=gain > 1.0 / np.finfo(float).max)
    beta = np.maximum(lambda2 - inv_gain, 0.0)
    power = float(np.einsum("lk,lkn,ln->", beta, np.abs(vh) ** 2, d_isqrt**2))
    X = kernel.U @ (d_isqrt[:, :, None] * np.swapaxes(vh, -1, -2).conj())
    covariances = hermitize((X * beta[:, None, :]) @ np.swapaxes(X, -1, -2).conj())
    return gain, lambda2, power, beta, covariances


def converged_completion(observed, omega, mu: float):
    """Minimizer of mu*||X||_* + 0.5*||P_Omega(X - observed)||_F^2 at a fixed mu.

    Iterates X <- svd_shrink(X - P_Omega(X - observed), mu), whose fixed
    points are exactly the minimizers, and returns the first iterate with
    ||X - svd_shrink(X - P_Omega(X - observed), mu)|| <= 1e-10*||X||.
    Raises RuntimeError if none does within 100 000 iterations.
    """
    masked = omega * observed
    X = np.zeros_like(masked)
    for _ in range(100_000):
        Z = svd_shrink(X - omega * (X - masked), mu)[0]
        if np.linalg.norm(Z - X) <= 1e-10 * np.linalg.norm(X):
            return X
        X = Z
    raise RuntimeError("no fixed-point certificate within 100 000 iterations")


def textbook_completion(observed, omega, params):
    """completion.complete with each step as its formula reads: the
    gradient step Y - P_Omega(Y - observed), the momentum step
    X + (t/t_new)(Z - X) + ((t-1)/t_new)(X - X_prev), and Frobenius norms
    for the objective and the stop test. Same schedule, same shrink.
    Returns (estimate, iterations, converged)."""
    masked = omega * observed
    sigma1 = float(gram_spectrum(masked)[0][0])
    mu_final = params.mu if params.mu is not None else params.mu_rel * sigma1

    def objective(mat, mu, nuc=None):
        if nuc is None:
            nuc = float(gram_spectrum(mat)[0].sum())
        return mu * nuc + 0.5 * float(np.linalg.norm(omega * (mat - observed)) ** 2)

    X, total, converged = np.zeros_like(observed), 0, False
    for mu in _mu_schedule(sigma1, mu_final, _CONTINUATION):
        Y, t, obj, converged = X, 1.0, objective(X, mu), False
        for _ in range(_MAX_ITERATIONS):
            Z, s = shrink(Y - omega * (Y - observed), mu)
            obj_Z = objective(Z, mu, nuc=float(s.sum()))
            X_prev = X
            if obj_Z <= obj:
                X, obj = Z, obj_Z
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            Y = X + (t / t_new) * (Z - X) + ((t - 1.0) / t_new) * (X - X_prev)
            t = t_new
            total += 1
            if np.linalg.norm(Z - X_prev) / max(np.linalg.norm(Z), 1e-300) < params.tolerance:
                converged = True
                break
    return X, total, converged


def water_fill(gains: np.ndarray, budget: float) -> np.ndarray:
    """Classic water-filling: maximize sum log2(1 + g_i p_i) s.t. sum p_i = budget.

    Returns the optimal powers. Exact active-set solve over sorted gains.
    """
    g = np.asarray(gains, dtype=float)
    order = np.argsort(g)[::-1]
    gs = g[order]
    if gs.size == 0 or gs[0] <= 0 or budget <= 0:
        return np.zeros_like(g)
    pos = gs > 0
    gs = gs[pos]
    # With k channels active the water level is (budget + sum 1/g)/k.
    inv = 1.0 / gs
    cum = np.cumsum(inv)
    k = gs.size
    for i in range(gs.size):
        level = (budget + cum[i]) / (i + 1)
        if i + 1 == gs.size or level <= inv[i + 1]:
            k = i + 1
            break
    level = (budget + cum[k - 1]) / k
    powers = np.zeros_like(g)
    powers[order[:k]] = level - inv[:k]
    return powers


def capacity_bound(whitened: np.ndarray, P_t: float) -> float:
    """Water-filling capacity bound of the block under total power P_t, from
    the (L, M_rC, M_tC) whitened channels R_wl^{-1/2} H. A capacity target
    above it is unreachable within P_t."""
    gains = np.linalg.svd(whitened, compute_uv=False).ravel() ** 2
    powers = water_fill(gains, P_t)
    return float(np.sum(np.log2(1.0 + gains * powers)) / len(whitened))


def selfish(B, C: float, P_t: float, G2):
    """The selfish (minimum-power) design: solve_weighted_eip with W_l = 0,
    as the harness's selfish method solves it."""
    return solve_weighted_eip(np.zeros((len(B), G2.shape[0])), B, G2, P_t, C, {})


def verify_solution(sol, H, R_w, G2, P_t: float, C: float, weights=None, other=None) -> dict:
    """Feasibility / optimality report for a returned design, recomputed
    from its dense covariance stack (dense_schedule of sol.X and sol.d),
    the channel H and the dense noise stack R_w (comm_link), not from the
    whitened channels it was solved for.

    When weights and a second solution are given, the ordering verdict
    checks that sol's weighted EIP does not exceed the other solution's
    (the structure of the cooperative-vs-noncooperative comparisons).
    """
    report = {}
    schedule = dense_schedule(sol.X, sol.d)
    trace = np.trace(schedule, axis1=-2, axis2=-1).real
    report["psd_ok"] = bool(np.all(np.isfinite(schedule)) and np.all(
        np.linalg.eigvalsh(hermitize(schedule))[:, 0] >= -1e-9 * np.maximum(1.0, trace)))
    power = float(trace.sum())
    report["consumed_power"] = power
    report["power_feasible"] = power <= P_t + 1e-6
    cap = dense_capacity(schedule, H, R_w)
    report["capacity_gap"] = cap - C
    report["capacity_active"] = abs(cap - C) <= 1e-3
    report["slackness_residual"] = abs(sol.lambda1 * (P_t - power))
    if weights is not None:
        def eip(design):  # clamped at 0: a dense profile can round below it
            return max(weighted_eip(weights, dense_profile(G2, dense_schedule(design.X, design.d))), 0.0)

        report["objective_eip"] = eip(sol)
        if other is not None:
            other_eip = eip(other)
            report["other_eip"] = other_eip
            report["ordering_ok"] = report["objective_eip"] <= other_eip + 1e-8
    return report


def floyd_warshall_certified(cost, perm=None, below=None) -> bool:
    """True when the candidate perm (default: the identity) is the unique
    optimal assignment of the square cost by more than the margin
    n^3 * eps * max|C|: every cycle of its exchange digraph weighs more than
    the margin. Given `below`, True instead when no closed walk that
    Floyd-Warshall forms weighs less than `below`; every cycle is such a
    walk, so with below = -margin a True means that perm has no cycle
    below -margin.

    A permutation's cost minus that of perm is the sum of its cycles'
    weights in the complete digraph with arc weights D_ij = C[i, perm[j]] -
    C[i, perm[i]]. Floyd-Warshall over D, with +inf on the diagonal, leaves
    the least cycle weight through i in D_ii (where a cycle is negative,
    D_ii may hold a closed walk around it more than once, lower still). It
    gives up as soon as any D_ii falls below the bound, which also keeps
    negative cycles from compounding towards overflow.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if below is None:  # every cycle above the margin: none below the double after it
        below = np.nextafter(n**3 * np.finfo(float).eps * float(np.abs(cost).max()), np.inf)
    D = cost[:, np.arange(n) if perm is None else perm]
    D = D - np.diagonal(D)[:, None]
    np.fill_diagonal(D, np.inf)
    cycles = np.diagonal(D)  # a read-only view, updated in place with D
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
        if cycles.min() < below:
            return False
    return True
