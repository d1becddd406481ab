"""Release-gate checks.

Each check measures one contract of the package (solver optimality against
the exhaustive 2D oracle, feasibility at returned optima, closed-form root
accuracy, special-function accuracy against a frozen high-precision table,
analytic-versus-Monte-Carlo agreement, high-SNR scaling, experiment trends,
and worker-count determinism) and returns a CheckResult with the measured
value, its tolerance, and a pass flag.  A check whose contracts share one
computation (a solved instance pool, a set of quadrature values) returns one
result per contract from a single pass.  ``run_all`` drives the standard
set.  The acceptance test suite runs the same checks at the scales of
``run_all(full=True)`` except one: ``optimized_dominance`` runs 20,000 draws
per SNR point there (``full=True``: 100,000; the quick gate: 4,000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, montecarlo, optimizer, specfun
from .model import (ChannelRealization, DesignPoint, SystemParams, db_to_linear,
                    sinr_mrc_at_u2, sinr_x2_at_u1)

__all__ = ["CheckResult", "random_instances", "run_all"]


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float | str
    passed: bool
    detail: str = ""


def _at_most(name: str, value: float, bound: float, detail: str) -> CheckResult:
    """A check that passes when ``value <= bound``."""
    return CheckResult(name=name, value=value, tolerance=bound,
                       passed=value <= bound, detail=detail)


# The standard instance pool draws its SNR, weight ratio and conversion noise
# from these.
_POOL_SNR_DB_RANGE = (0.0, 40.0)
_POOL_WTILDE2_CHOICES = (1.5, 2.0, 5.0, 10.0)
_POOL_MU_CHOICES = (0.0, 0.5, 1.0)


def random_instances(seed: int, n: int):
    """Seeded random (params, channel) pairs with swap-ordered unit-variance
    Rayleigh gains; the standard instance pool for solver checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        snr = db_to_linear(rng.uniform(*_POOL_SNR_DB_RANGE))
        wt2 = float(rng.choice(_POOL_WTILDE2_CHOICES))
        mu = float(rng.choice(_POOL_MU_CHOICES))
        g = rng.exponential(1.0, 3)
        g1, g2 = max(g[0], g[1]), min(g[0], g[1])
        if g1 == g2:
            continue
        out.append((
            SystemParams(avg_snr=float(snr), mu=mu, w1=1.0, w2=wt2),
            ChannelRealization(g1=float(g1), g2=float(g2), g3=float(g[2])),
        ))
    return out


def check_solver_pool(seed=1001) -> list[CheckResult]:
    """Solve each of 200 instances of the standard pool once and check the
    solution against the 2D oracle (within 1e-4), the rho bound and the
    decode margin."""
    n_instances, n_grid, tol = 200, 300, 1e-4
    worst_gap = math.inf
    worst_rho = -math.inf
    worst_sinr = -math.inf
    for p, ch in random_instances(seed, n_instances):
        out = optimizer.solve_1d(p, ch)
        ws_2d = optimizer.solve_2d_exhaustive(p, ch, n_grid, n_grid).rate_triple.weighted_sum
        worst_gap = min(worst_gap, out.rate_triple.weighted_sum - ws_2d)
        worst_rho = max(worst_rho, out.rho_star - optimizer.rho_tilde(p, ch, out.alpha_star))
        d = DesignPoint(alpha=out.alpha_star, rho=out.rho_star)
        s_mrc = sinr_mrc_at_u2(p, ch, d)
        worst_sinr = max(
            worst_sinr, (s_mrc - sinr_x2_at_u1(p, ch, d)) / (1.0 + s_mrc)
        )
    return [
        CheckResult(
            name="solver_optimality",
            value=worst_gap,
            tolerance=-tol,
            passed=worst_gap >= -tol,
            detail=f"min(1D - 2D oracle) weighted sum over {n_instances} instances, "
                   f"{n_grid}x{n_grid} grid",
        ),
        _at_most("feasibility_rho_bound", worst_rho, 1e-12,
                 f"max(rho* - rho_tilde(alpha*)) over {n_instances} instances"),
        _at_most("feasibility_decode_margin", worst_sinr, 1e-8,
                 "max (sinr_mrc - sinr_x2) / (1 + sinr_mrc) at solver output"),
    ]


def check_root_crossing(seed=1002) -> CheckResult:
    n_pairs = 1000
    rng = np.random.default_rng(seed)
    instances = random_instances(seed + 1, n_pairs)
    worst = 0.0
    for p, ch in instances:
        alpha = float(rng.uniform(0.02, 0.98))
        rt = optimizer.rho_tilde(p, ch, alpha)
        d = DesignPoint(alpha=alpha, rho=min(rt, optimizer._RHO_CAP))
        s_x2 = sinr_x2_at_u1(p, ch, d)
        s_mrc = sinr_mrc_at_u2(p, ch, d)
        if rt < optimizer._RHO_CAP:
            worst = max(worst, abs(s_x2 - s_mrc) / (1.0 + s_mrc))
        elif s_x2 < s_mrc:
            # a boundary within roundoff of 1 means the constraint never
            # binds on [0, 1); it must still hold at the probe point
            worst = max(worst, (s_mrc - s_x2) / (1.0 + s_mrc))
    return _at_most("root_crossing", worst, 1e-9,
                    f"SINR crossing residual at rho_tilde over {n_pairs} (instance, alpha) pairs")


def _df_drho_numerator(d, e, t, pp, q, wtilde2, rho):
    """Numerator N(rho) of d f_alpha / d rho, written from the coefficients of
    f_alpha rather than the solver's (lead, beta, constant): the stationarity
    check's independent reference.  It shares its sign with the derivative on
    [0, 1), where the denominator (p + q rho)^(1 - wr) (t - rho)^2 is
    positive."""
    return (d - e * t) * (pp + q * rho) + q * wtilde2 * (t - rho) * (d - e * rho)


def check_stationarity(seed=1003) -> CheckResult:
    rng = np.random.default_rng(seed)
    instances = random_instances(seed + 1, 1000)
    worst = 0.0
    tested = 0
    for p, ch in instances:
        x = np.array([rng.uniform(0.02, 0.98)])
        k = optimizer._draw(p, ch.g1, ch.g2, ch.g3)
        if k.q == 0.0:
            continue
        d, e, pp, _, _, _, lead, beta, constant, theta = optimizer._coeffs(k, x, 1.0 - x)
        if theta[0] <= 0.0:
            continue
        rb = optimizer._stationary_root(lead, beta, constant, theta).item()
        if not 0.0 <= rb < 1.0:
            continue
        d, e, pp, lead, beta, constant = (v.item() for v in (d, e, pp, lead, beta, constant))
        tested += 1
        # conditioning scale of evaluating the stationary quadratic at rb
        scale = lead * rb * rb + 2 * abs(beta) * rb + abs(constant)
        if scale > 0:
            numerator = _df_drho_numerator(d, e, 1.0 + p.mu, pp, k.q, p.wtilde2, rb)
            worst = max(worst, abs(numerator) / scale)
    return _at_most("stationarity_residual", worst, 1e-9,
                    f"|derivative numerator at rho_bar| / scale, {tested} interior cases")


# x, Gamma(0, x), K0(x), K1(x); 40-point log grid on [1e-6, 500] computed
# with a 30-digit arbitrary-precision reference.
_SPECFUN_REFERENCE = (
    (1e-06, 13.23829589306249, 13.93144207362642, 999999.9999927843),
    (1.6712849907044582e-06, 12.724703778285843, 13.417849287571563, 598341.9976499971),
    (2.7931935201540063e-06, 12.211112114131927, 12.904256501527424, 358013.146146986),
    (4.6682224063663415e-06, 11.697521203096125, 12.390663715512066, 214214.3010358247),
    (7.80193004103033e-06, 11.1839315507328, 11.877070929573877, 128173.41277918487),
    (1.3039248576100206e-05, 10.670344001962855, 11.363478143842245, 76691.53580094989),
    (2.1792300435300753e-05, 10.156759968877303, 10.84988535866243, 45887.76665748753),
    (3.642114463044045e-05, 9.643181811447409, 10.336292574953744, 27456.57784673356),
    (6.08701123651314e-05, 9.129613473759296, 9.822699795158142, 16428.423441668467),
    (0.00010173130517833805, 8.616061547229942, 9.309107025744867, 9829.815389554651),
    (0.00017002200342933126, 8.10253704722766, 8.795514283801685, 5881.590885150878),
    (0.00028415522242094355, 7.589058381427283, 8.28192161431489, 3519.2020647575596),
    (0.00047490435826241036, 7.075656308309119, 7.768329135277782, 2105.6851768291917),
    (0.0007937005259841, 6.562382217330879, 7.254737154866685, 1259.9179724256437),
    (0.00132649977619146, 6.04932194821148, 6.741146474098447, 753.8588752015374),
    (0.0022169591661216122, 5.536618833189096, 6.227559163393808, 451.060841636039),
    (0.003705170579343726, 5.024512057414674, 5.713980539452116, 269.88159519307334),
    (0.006192395977256917, 4.513400352734245, 5.200424150172956, 161.470731304712),
    (0.01034925845328815, 4.003947287089849, 4.68692419911436, 96.5984403689383),
    (0.017296560317901756, 3.4972540120179474, 4.1735660626864926, 57.77454658386734),
    (0.028907481650123537, 2.9951390776425493, 3.66055984578775, 34.53299164010026),
    (0.04831264020091611, 2.500581706700303, 3.148413264368682, 20.61041213289621),
    (0.0807441904290959, 2.0183966926193047, 2.638323997428994, 12.25820259726128),
    (0.13494655355073054, 1.556187868132338, 2.1330255755658287, 7.233123742568244),
    (0.2255341494966318, 1.125497085746904, 1.6384699315431774, 4.194467214898319),
    (0.3769318389450162, 0.7426646517837273, 1.1667366669804975, 2.3451404950490193),
    (0.6299605249474369, 0.4280307116766621, 0.7397694476578947, 1.218694630581159),
    (1.0528435700809526, 0.20092774975373978, 0.39059301525177503, 0.5508088264568821),
    (1.7596016562359935, 0.06854239807264541, 0.1535151559179449, 0.19293190946817532),
    (2.940795837685928, 0.014070804284983451, 0.03720341522314477, 0.04311484109976811),
    (4.9149079442506345, 0.0012690296925060897, 0.004052091984845114, 0.004446642909839625),
    (8.214211877920206, 2.968261943484496e-05, 0.00011671865939544882, 0.00012362939765561877),
    (13.728289022034321, 7.439046795836409e-08, 3.6585699791658053e-07, 3.7895519546679254e-07),
    (22.943883390578744, 4.540535522884759e-12, 2.8249308643423225e-11, 2.8858492279637237e-11),
    (38.34576793914765, 5.649554486304282e-19, 4.481754443535714e-18, 4.539821706942971e-18),
    (64.08670641373368, 2.259978485599523e-30, 2.2979068702191952e-29, 2.3157661074464308e-29),
    (107.10715053295624, 2.819276225846407e-49, 3.6863940333808264e-48, 3.703563142757544e-48),
    (179.0065730828535, 1.0072980179172334e-80, 1.6972902249985734e-79, 1.7020245006557625e-79),
    (299.1709988308137, 3.929362718381436e-133, 8.54289561651443e-132, 8.557161338428414e-132),
    (499.99999999999994, 1.4220767822537193e-220, 3.99232160911802e-219, 3.9963119385462305e-219),
)


def check_specfun_reference() -> CheckResult:
    worst = 0.0
    for x, g_ref, k0_ref, k1_ref in _SPECFUN_REFERENCE:
        g_scaled = g_ref * math.exp(x)
        worst = max(
            worst,
            abs(specfun.gamma_upper_0_scaled(x) - g_scaled) / g_scaled,
            abs(specfun.bessel_k0(x) - k0_ref) / k0_ref,
            abs(specfun.bessel_k1(x) - k1_ref) / k1_ref,
        )
    return _at_most("specfun_reference", worst, 1e-10,
                    "max rel err of e^x Gamma(0,.), K0, K1 vs 40-point frozen table")


def check_density_normalization() -> CheckResult:
    worst = 0.0
    spec = specfun.QuadratureSpec(rel_tol=1e-9)
    for snr_db, rho in ((0.0, 0.05), (10.0, 0.3), (30.0, 0.9)):
        p = SystemParams(avg_snr=db_to_linear(snr_db), mu=1.0)
        d = DesignPoint(alpha=0.25, rho=rho)
        total, _ = specfun.integrate_semi_infinite(
            lambda z: analysis.w2_density(p, d, z), 0.0, spec
        )
        worst = max(worst, abs(total - 1.0))
    return _at_most("w2_density_normalization", worst, 1e-7,
                    "relay-branch SINR density integrates to 1")


_MC_DESIGN = DesignPoint(alpha=0.25, rho=0.3)


def check_u1_analytic_vs_mc(seed=1004) -> CheckResult:
    samples = 1_000_000
    sampler = montecarlo.SamplerConfig(
        seed=seed, ordering=montecarlo.Ordering.UNORDERED, sample_count=samples
    )
    worst = 0.0
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        p = SystemParams(avg_snr=db_to_linear(snr_db), mu=1.0, w1=1.0, w2=2.0)
        rep = montecarlo.estimate_ergodic(sampler, p, _MC_DESIGN)
        z = abs(analysis.ergodic_rate_u1(p, _MC_DESIGN) - rep["mean_c1"]) / rep["se_c1"]
        worst = max(worst, z)
    return _at_most("u1_analytic_vs_mc", worst, 3.0,
                    f"max |closed form - MC| / SE at 0/10/20/30 dB, {samples} draws")


def check_weak_user(seed=1005) -> list[CheckResult]:
    """The weak-user quadrature, evaluated once at each of 0, 20, 30 and
    40 dB: agreement with correlated Monte Carlo (0/20/30 dB), the high-SNR
    slope of the weighted sum and the saturation of c2 (30 -> 40 dB)."""
    sampler = montecarlo.SamplerConfig(
        seed=seed, ordering=montecarlo.Ordering.UNORDERED, sample_count=1_000_000
    )
    params = {snr_db: SystemParams(avg_snr=db_to_linear(snr_db), mu=1.0, w1=1.0, w2=2.0)
              for snr_db in (0.0, 20.0, 30.0, 40.0)}
    c2 = {snr_db: analysis.ergodic_rate_u2(p, _MC_DESIGN)[0] for snr_db, p in params.items()}

    gaps = {}
    for snr_db in (0.0, 20.0, 30.0):
        mc = montecarlo.estimate_ergodic(sampler, params[snr_db], _MC_DESIGN)["mean_c2"]
        gaps[snr_db] = abs(c2[snr_db] - mc) / mc
    worst_high = max(gaps[20.0], gaps[30.0])
    shrinking = gaps[30.0] < gaps[0.0]

    def weighted_sum(snr_db):
        p = params[snr_db]
        return p.w1 * analysis.ergodic_rate_u1(p, _MC_DESIGN) + p.w2 * c2[snr_db]

    slope = (weighted_sum(40.0) - weighted_sum(30.0)) / (math.log2(1e4) - math.log2(1e3))
    target = params[30.0].w1 / 2.0
    delta = c2[40.0] - c2[30.0]
    return [
        CheckResult(
            name="u2_analytic_vs_mc",
            value=worst_high,
            tolerance=0.05,
            passed=(worst_high <= 0.05) and shrinking,
            detail=f"rel gap vs correlated MC: {', '.join(f'{k:g} dB: {v:.4f}' for k, v in gaps.items())}"
                   f"; gap(30) < gap(0): {shrinking}",
        ),
        _at_most("high_snr_slope", abs(slope - target) / target, 0.10,
                 f"weighted-sum slope {slope:.4f} vs w1/2 = {target}, 30->40 dB"),
        CheckResult(
            name="u2_saturation",
            value=delta,
            tolerance=0.05,
            passed=delta < 0.05,
            detail="c2_e(40 dB) - c2_e(30 dB), fixed alpha=0.25 rho=0.3",
        ),
    ]


def check_fig2_gains(seed=1006, samples=100_000, workers=1) -> list[CheckResult]:
    sampler = montecarlo.SamplerConfig(
        seed=seed, ordering=montecarlo.Ordering.SWAP_ORDERED, sample_count=samples
    )
    bands = ((5.0, 30.0, 60.0), (2.0, 17.0, 42.0))  # (wtilde2, low, high) gain in %
    points = montecarlo.estimate_optimized_sweep(
        sampler, [SystemParams(avg_snr=10.0, mu=1.0, w1=1.0, w2=wt2) for wt2, _, _ in bands],
        baseline=_MC_DESIGN, workers=workers)
    gains = {wt2: pt["gain_percent"] for (wt2, _, _), pt in zip(bands, points)}
    results = [
        CheckResult(
            name=f"fig2_gain_wtilde2_{wt2:g}",
            value=gains[wt2],
            tolerance=f"within [{lo:g}, {hi:g}] percent",
            passed=lo <= gains[wt2] <= hi,
            detail=f"optimized-vs-fixed gain at 10 dB, {samples} draws",
        )
        for wt2, lo, hi in bands
    ]
    results.append(
        CheckResult(
            name="fig2_gain_ordering",
            value=gains[5.0] - gains[2.0],
            tolerance="> 0",
            passed=gains[5.0] > gains[2.0],
            detail="gain(wtilde2=5) > gain(wtilde2=2)",
        )
    )
    return results


def check_optimized_dominance(seed=1007, samples=4000, workers=1) -> CheckResult:
    snr_db_values = (0, 5, 10, 15, 20, 25, 30, 35, 40)
    baselines = ((0.25, 0.3), (0.5, 0.5), (0.1, 0.1))
    sampler = montecarlo.SamplerConfig(
        seed=seed, ordering=montecarlo.Ordering.SWAP_ORDERED, sample_count=samples
    )
    params = [SystemParams(avg_snr=db_to_linear(snr_db), mu=1.0, w1=1.0, w2=2.0)
              for snr_db in snr_db_values]
    points = montecarlo.estimate_optimized_sweep(sampler, params, workers=workers)
    worst = math.inf
    for p, pt in zip(params, points):
        for alpha, rho in baselines:
            fixed = montecarlo.estimate_ergodic(sampler, p, DesignPoint(alpha, rho))
            worst = min(worst, pt["mean_wsum_opt"] - fixed["mean_wsum"])
    return CheckResult(
        name="optimized_dominance",
        value=worst,
        tolerance="> 0",
        passed=worst > 0,
        detail=f"min(optimized mean - fixed mean) over {len(snr_db_values)} SNR points "
               f"x {len(baselines)} baselines, {samples} draws each",
    )


def check_fig3_trends(seed=1008, samples=100_000, workers=1) -> list[CheckResult]:
    sampler = montecarlo.SamplerConfig(
        seed=seed, ordering=montecarlo.Ordering.SWAP_ORDERED, sample_count=samples
    )
    points = montecarlo.estimate_optimized_sweep(
        sampler, [SystemParams(avg_snr=10.0, mu=1.0, w1=1.0, w2=wt2)
                  for wt2 in (1.5, 2.0, 3.0, 5.0, 7.0, 10.0)],
        workers=workers)

    def pair_slack(a, b):
        return math.sqrt(a * a + b * b)

    alpha_viol = -math.inf
    rho_viol = -math.inf
    for prev, cur in zip(points, points[1:]):
        alpha_viol = max(
            alpha_viol,
            cur["mean_alpha_star"] - prev["mean_alpha_star"]
            - pair_slack(cur["se_alpha_star"], prev["se_alpha_star"]),
        )
        rho_viol = max(
            rho_viol,
            prev["mean_rho_star"] - cur["mean_rho_star"]
            - pair_slack(cur["se_rho_star"], prev["se_rho_star"]),
        )
    alphas = ", ".join(f"{pt['mean_alpha_star']:.4f}" for pt in points)
    rhos = ", ".join(f"{pt['mean_rho_star']:.4f}" for pt in points)
    return [
        _at_most("fig3_alpha_trend", alpha_viol, 0.0,
                 f"E[alpha*] nonincreasing (1-SE slack): {alphas}"),
        _at_most("fig3_rho_trend", rho_viol, 0.0,
                 f"E[rho*] nondecreasing (1-SE slack): {rhos}"),
    ]


def check_determinism(seed=1009) -> CheckResult:
    """run_fig2 twice with different worker counts must give identical CSVs
    (timestamp line aside).  Blocks of 256 draws give each of the four
    points 8 blocks; at workers=2 the figure's one sweep call opens one pool
    of two processes and makes two jobs of 4 blocks, each for all four
    points, so the block-order combination of the jobs' per-block sums is
    compared with the parent doing all 8."""
    import tempfile
    from pathlib import Path

    from . import cli  # runtime import: cli imports this module at load time

    diffs = -1
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for workers in (1, 2):
            out = Path(tmp) / f"fig2_w{workers}.csv"
            cfg = cli.ExperimentConfig(
                kind="fig2", seed=seed, samples=2000, block_size=256, workers=workers,
                snr_db_values=(0.0, 10.0), wtilde2_values=(2.0, 5.0),
                out=str(out),
            )
            cli.run_fig2(cfg)
            paths.append(out)

        def payload(path):
            # timestamp aside, only the knobs that name this very run (output
            # path, worker count) may differ between the two runs
            return [
                line for line in path.read_text().splitlines()
                if not line.startswith("# timestamp=")
                and not line.startswith("# config.workers=")
                and not line.startswith("# config.out=")
            ]

        a, b = payload(paths[0]), payload(paths[1])
        diffs = sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))
    return CheckResult(
        name="worker_determinism",
        value=float(diffs),
        tolerance=0.0,
        passed=diffs == 0,
        detail="differing CSV lines between workers=1 and workers=2 runs",
    )


def run_all(seed=12345, full=False, workers=1) -> list[CheckResult]:
    """The standard release gate.  ``full=True`` runs the Monte Carlo checks
    at their published scales (slower); otherwise reduced draw counts."""
    gain_n = 100_000 if full else 20_000
    trend_n = 100_000 if full else 10_000
    dom_n = 100_000 if full else 4000
    results = check_solver_pool(seed)
    results.append(check_root_crossing(seed + 1))
    results.append(check_stationarity(seed + 2))
    results.append(check_specfun_reference())
    results.append(check_density_normalization())
    results.append(check_u1_analytic_vs_mc(seed + 3))
    results += check_weak_user(seed + 4)
    results += check_fig2_gains(seed + 5, samples=gain_n, workers=workers)
    results.append(check_optimized_dominance(seed + 6, samples=dom_n, workers=workers))
    results += check_fig3_trends(seed + 7, samples=trend_n, workers=workers)
    results.append(check_determinism(seed + 8))
    return results
