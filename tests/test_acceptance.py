"""Acceptance suite.

Each test evaluates one release criterion at its stated tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).
Published reference values appear inline; reproduction tolerances combine
Monte Carlo standard errors with the stated relative bounds.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from recsel import asymptotics, cli, datasets, estimators, families, montecarlo, records, stationarity
from recsel.montecarlo import ParameterSequenceModel, SimulationConfig

SEED = 20260810

RAIN_FAMILY_JSON = (
    '{"kind": "proportional_hazard", "member": "custom", '
    '"params": {"custom_H": {"shift": 4, "power": 1.9, "scale": 1}}}'
)
# the published LACC upper record values (inches), as bundled
RAIN_RECORD_VALUES = (12.69, 12.84, 18.72, 21.96, 23.92, 27.16, 31.28, 34.04)

# reference critical values t_n(alpha), rows n = 2..10, columns alphas below
REF_ALPHAS = (0.01, 0.025, 0.05, 0.1)
REF_TABLE2 = {
    2: (8645.63, 1368.24, 326.02, 64.61),
    3: (19003.73, 3113.96, 723.25, 164.76),
    4: (27929.12, 4681.26, 1093.01, 264.36),
    5: (37018.72, 6343.56, 1529.97, 355.73),
    6: (49769.98, 7707.69, 2007.57, 456.78),
    7: (64315.21, 9211.87, 2388.29, 563.19),
    8: (70630.56, 10801.06, 2698.59, 655.51),
    9: (73372.31, 11655.77, 3131.44, 747.15),
    10: (92847.93, 13727.53, 3500.69, 883.22),
}

# reference simulated (umvue risk, natural bias, natural risk) per scheme/p/n
REF_TABLE1 = {
    ("ar_positive_error", 0.5): {2: (9.440638, 1.524951, 23.1851),
                                 3: (14.75326, 4.747217, 84.08421),
                                 4: (18.54895, 9.160673, 209.7748)},
    ("ar_positive_error", 2.0): {2: (3.224838, 0.5978639, 3.886525),
                                 3: (6.856674, 1.782032, 12.33907),
                                 4: (10.66222, 3.29696, 27.96078)},
    ("stochastic_geometric", 0.5): {2: (2.224561, 0.7864656, 5.501025),
                                    3: (53.26235, 2.342428, 94.40079),
                                    4: (1785.95, 6.334353, 2499.64)},
    ("stochastic_geometric", 2.0): {2: (0.5376576, 0.3038626, 0.6209572),
                                    3: (2.314486, 0.72345, 2.658157),
                                    4: (19.68881, 1.335166, 19.79643)},
    ("white_noise", 0.5): {2: (161.3311, 13.682, 685.7074),
                           3: (146.8202, 30.34559, 1851.813),
                           4: (125.2359, 47.98977, 3543.839)},
    ("white_noise", 2.0): {2: (64.93679, 7.023687, 131.9781),
                           3: (74.52687, 13.47608, 297.2568),
                           4: (82.06017, 19.60645, 537.5641)},
}


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def table2():
    """Regenerated critical-value table at 1e5 replications (timed)."""
    t0 = time.perf_counter()
    table = stationarity.critical_values(range(2, 11), REF_ALPHAS, 10**5, SEED, threads=8)
    return table, time.perf_counter() - t0


def test_criterion_1_rainfall_statistic(table2, tmp_path):
    """The paper's rainfall computation: T = 358.89 +/- 0.01 on the bundled
    records, equal to a plain-numpy recomputation of the statistic's
    definition (spacings of H(x) = (x - 4)^1.9 from 0, ratios of consecutive
    spacings, mean of the n - 1 squared jumps); the same sum of squares over
    9 gives the published 279.14 +/- 0.01; FailToReject at 0.05 against the
    reference t_8 and the regenerated table; runtime < 1 s.

    The published 279.14 divides by 9, which is the size of nothing in the
    data (8 records, 7 ratios).  The paper's own critical-value table fixes
    the divisor at n - 1: at every n = 2..10 its t_n(0.05) and t_n(0.1) lie
    within 0.93-1.09 of the quantiles of the n - 1 statistic (criterion 2),
    whereas dividing by n + 1 would shrink them by (n - 1)/(n + 1), a factor
    of 3 at n = 2 and 1.29 at n = 8."""
    h = (np.array(RAIN_RECORD_VALUES) - 4.0) ** 1.9
    spacings = np.diff(h, prepend=0.0)
    ratios = spacings[1:] / spacings[:-1]
    expected_T = np.sum((ratios - 1.0) ** 2) / (len(RAIN_RECORD_VALUES) - 1)

    ref_table_path = tmp_path / "ref_table.csv"
    ref_table_path.write_text("# replications=100000\n# master_seed=0\nn,0.05\n8,2698.59\n")
    out = tmp_path / "out"

    t0 = time.perf_counter()
    code = cli.main(["test", "--input", "lacc-rainfall-records", "--family", RAIN_FAMILY_JSON,
                     "--alpha", "0.05", "--table", str(ref_table_path), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "test_report.json").read_text())
    T, n = report["T"], report["n"]

    regen_table, _ = table2
    regen_decision = stationarity.decide(T, 8, 0.05, regen_table)

    ok_T = abs(T - 358.89) <= 0.01 and math.isclose(T, expected_T, rel_tol=1e-12)
    # the paper divides the same sum of squared jumps by 9 instead of n - 1:
    # its 279.14 checks the numerator, not the divisor
    published_T = (n - 1) * T / 9
    ok_published = abs(published_T - 279.14) <= 0.01
    ok_decisions = (code == 0 and report["decision"] == "fail_to_reject"
                    and regen_decision == stationarity.Decision.FAIL_TO_REJECT)
    ok_runtime = elapsed < 1.0
    detail = (f"T={T:.4f} with n={n} (target 358.89 +/- 0.01, numpy recomputation "
              f"{expected_T:.4f}), (n-1)*T/9={published_T:.4f} (published 279.14 +/- 0.01), "
              f"decision vs ref t_8=2698.59: {report['decision']}, "
              f"decision vs regenerated t_8={regen_table.cell(8, 0.05):.1f}: {regen_decision.value}, "
              f"runtime {elapsed:.2f}s")
    _report("1 rainfall-statistic", ok_T and ok_published and ok_decisions and ok_runtime, detail)
    assert ok_decisions and ok_runtime, detail
    assert ok_T and ok_published, (
        f"T is the mean of the n-1 squared ratio jumps of the H-spacings, which the numpy "
        f"recomputation gives as {expected_T:.4f} (358.89 to 0.01), and the same sum over 9 "
        f"must give the published 279.14 to 0.01; the critical-value table fixes the n-1 "
        f"divisor (published/regenerated quantiles 0.93-1.09 at every n = 2..10). Got: {detail}")


def test_criterion_2_table2_reproduction(table2):
    """t_n(alpha) within 10% (alpha .05/.1) and 35% (alpha .01/.025) of the
    reference at 1e5 replications; runtime < 2 min."""
    table, elapsed = table2
    worst = {}
    ok = True
    for i, n in enumerate(table.n_values):
        for j, alpha in enumerate(table.alphas):
            ref = REF_TABLE2[n][j]
            rel = abs(float(table.quantiles[i, j]) - ref) / ref
            tol = 0.10 if alpha >= 0.05 else 0.35
            ok &= rel <= tol
            if rel > worst.get(alpha, (0.0, None))[0]:
                worst[alpha] = (rel, n)
    ok_runtime = elapsed < 120.0
    detail = ("worst rel dev per alpha: "
              + ", ".join(f"{a}: {d:.1%} (n={n})" for a, (d, n) in sorted(worst.items()))
              + f", runtime {elapsed:.1f}s")
    _report("2 table2-reproduction", ok and ok_runtime, detail)
    assert ok and ok_runtime, detail


def _table1_cell_checks(model, p, ref_cells, seed):
    """Simulate one scheme/p configuration at 1e5 replications and return
    (strict orderings, noise-aware orderings, value checks, bias checks)
    booleans per n.

    The risk ordering is a claim about two estimates from the same draws, so
    it is tested on the paired per-replicate gap: the gap may not exceed 4 of
    its own standard errors (no domination theorem exists for the gamma
    family, and at one geometric cell the true risks differ by less than the
    simulation resolution of the stated replication count).
    """
    fam = families.gamma_type(families.Member.GAMMA, p=p)
    config = SimulationConfig(family=fam, theta_model=model, n_target=4,
                              replications=10**5, master_seed=seed)
    draws = montecarlo.simulate_records(config, threads=8)
    vals, ths = draws.values[draws.ok], draws.thetas[draws.ok]
    m = vals.shape[0]
    strict, noise_aware, values, biases = [], [], [], []
    for n in (2, 3, 4):
        th = ths[:, n - 1]
        umv_err = estimators.umvue_gamma(vals[:, n - 2], vals[:, n - 1], p) - th
        nat_err = estimators.natural_gamma(vals[:, n - 1], p) - th
        umv_risk, nat_risk = float((umv_err**2).mean()), float((nat_err**2).mean())
        strict.append(umv_risk < nat_risk)
        gap = umv_err**2 - nat_err**2
        noise_aware.append(float(gap.mean()) < 4 * gap.std(ddof=1) / math.sqrt(m))
        ref_ur, ref_nb, ref_nr = ref_cells[n]
        se_ur = (umv_err**2).std(ddof=1) / math.sqrt(m)
        se_nb = nat_err.std(ddof=1) / math.sqrt(m)
        se_nr = (nat_err**2).std(ddof=1) / math.sqrt(m)
        values.append(
            abs(umv_risk - ref_ur) <= max(4 * se_ur, 0.15 * abs(ref_ur))
            and abs(float(nat_err.mean()) - ref_nb) <= max(4 * se_nb, 0.15 * abs(ref_nb))
            and abs(nat_risk - ref_nr) <= max(4 * se_nr, 0.15 * abs(ref_nr)))
        biases.append(abs(float(umv_err.mean())) <= 4 * umv_err.std(ddof=1) / math.sqrt(m))
    return strict, noise_aware, values, biases


@pytest.mark.slow
def test_criterion_3_table1_reproduction():
    """Gamma family, three schemes, p in {0.5, 2}, n in {2, 3, 4}, 1e5
    replications per cell: risk ordering, value reproduction, and UMVUE
    unbiasedness; runtime < 10 min."""
    t0 = time.perf_counter()
    all_strict, all_order, all_values, all_bias = [], [], [], []
    geo_alternative = {}
    for p in (0.5, 2.0):
        for scheme_name, model in (
                ("ar_positive_error", ParameterSequenceModel.ar_positive_error()),
                ("white_noise", ParameterSequenceModel.white_noise()),
                ("stochastic_geometric", ParameterSequenceModel.stochastic_geometric(True))):
            strict, orderings, values, biases = _table1_cell_checks(
                model, p, REF_TABLE1[(scheme_name, p)], SEED)
            all_strict += strict
            all_order += orderings
            all_bias += biases
            if scheme_name == "stochastic_geometric":
                geo_alternative[(p, "redraw")] = values
            else:
                all_values += values
        # second reading of the geometric scheme: constants drawn once per replicate
        strict, orderings, values, biases = _table1_cell_checks(
            ParameterSequenceModel.stochastic_geometric(False), p,
            REF_TABLE1[("stochastic_geometric", p)], SEED)
        all_order += orderings
        all_bias += biases
        geo_alternative[(p, "fixed")] = values

    geo_values_ok = all(
        a or b for p in (0.5, 2.0)
        for a, b in zip(geo_alternative[(p, "redraw")], geo_alternative[(p, "fixed")]))
    elapsed = time.perf_counter() - t0
    ok = all(all_order) and all(all_values) and all(all_bias) and geo_values_ok and elapsed < 600.0
    detail = (f"risk ordering (gap < 4se) {sum(all_order)}/{len(all_order)} "
              f"(strict point ordering {sum(all_strict)}/{len(all_strict)}), "
              f"scheme 1/3 values {sum(all_values)}/{len(all_values)}, "
              f"geometric values matched under redraw reading: "
              f"{all(v for vs in (geo_alternative[(0.5, 'redraw')], geo_alternative[(2.0, 'redraw')]) for v in vs)}, "
              f"umvue |bias| <= 4se {sum(all_bias)}/{len(all_bias)}, runtime {elapsed:.0f}s")
    _report("3 table1-reproduction", ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_4_unbiasedness_suite():
    """Selection estimators and risk estimators are unbiased within 4 SE at
    n in {2, 3} under constant and geometric schemes, 1e5 reps; < 5 min."""
    t0 = time.perf_counter()
    failures = []
    schemes = (("constant", ParameterSequenceModel.constant(1.0)),
               ("geometric", ParameterSequenceModel.stochastic_geometric(True)))

    def run(family, seed):
        cfg = SimulationConfig(family=family, theta_model=model, n_target=3,
                               replications=10**5, master_seed=seed)
        d = montecarlo.simulate_records(cfg, threads=8)
        return d.values[d.ok], d.thetas[d.ok]

    def check(tag, sample):
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        if abs(sample.mean()) > 4 * se:
            failures.append(f"{tag}: mean {sample.mean():.4g} vs 4se {4 * se:.4g}")

    seed = SEED
    for scheme_name, model in schemes:
        for p in (0.5, 1.0, 2.0):
            seed += 1
            vals, ths = run(families.gamma_type(families.Member.GAMMA, p=p), seed)
            for n in (2, 3):
                prev, curr, th = vals[:, n - 2], vals[:, n - 1], ths[:, n - 1]
                v = estimators.umvue_gamma(prev, curr, p)
                check(f"V2 p={p} {scheme_name} n={n}", v - th)
                w = estimators.risk_umvue_gamma(prev, curr, p)
                check(f"W2 p={p} {scheme_name} n={n}", w - (v - th) ** 2)
        seed += 1
        vals, ths = run(families.proportional_hazard(families.Member.EXPONENTIAL), seed)
        for n in (2, 3):
            prev, curr, th = vals[:, n - 2], vals[:, n - 1], ths[:, n - 1]
            v = estimators.umvue_phr(prev, curr)
            check(f"V3 {scheme_name} n={n}", v - th)
            w = estimators.risk_umvue_phr(prev, curr)
            check(f"W3 {scheme_name} n={n}", w - (v - th) ** 2)
        seed += 1
        vals, ths = run(families.proportional_reversed_hazard(families.Member.BETA), seed)
        for n in (2, 3):
            v = estimators.umvue_phr(vals[:, n - 2], vals[:, n - 1])
            check(f"V4 {scheme_name} n={n}", v - ths[:, n - 1])

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = f"40 checks, runtime {elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else "")
    _report("4 unbiasedness-suite", ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_5_risk_identities():
    """Quadrature risk estimators match the closed forms to 1e-9 relative on
    100 random record pairs; simulated risk of the spacing estimator equals
    the simulated second moment of the target within 4 SE."""
    rng = np.random.default_rng(SEED)
    worst_gamma = 0.0
    for k in range(100):
        p = (0.5, 1.0, 2.0, 3.3)[k % 4]
        a = rng.gamma(2.0) if k % 5 else 0.0
        b = a + rng.gamma(2.0) + 1e-3
        V = lambda t, prev: estimators.umvue_gamma(prev, t, p)
        w_quad = estimators.risk_general_gamma(V, a, b, p)
        w_closed = estimators.risk_umvue_gamma(a, b, p)
        worst_gamma = max(worst_gamma, abs(w_quad - w_closed) / max(abs(w_closed), 1e-12))
    fam = datasets.rainfall_family()
    worst_phr = 0.0
    for _ in range(100):
        a = 4.0 + rng.gamma(2.0)
        b = a + rng.gamma(2.0) + 1e-3
        V = lambda t, prev: (families.cumulative_hazard(fam, t)
                             - families.cumulative_hazard(fam, prev))
        w_quad = estimators.risk_general_phr(V, a, b, fam)
        w_closed = estimators.risk_umvue_phr(families.cumulative_hazard(fam, a),
                                             families.cumulative_hazard(fam, b))
        worst_phr = max(worst_phr, abs(w_quad - w_closed) / abs(w_closed))

    ident = []
    for scheme_name, model in (("constant", ParameterSequenceModel.constant(1.0)),
                               ("geometric", ParameterSequenceModel.stochastic_geometric(True))):
        cfg = SimulationConfig(family=families.proportional_hazard(families.Member.EXPONENTIAL),
                               theta_model=model, n_target=3, replications=10**5,
                               master_seed=SEED + 99)
        d = montecarlo.simulate_records(cfg, threads=8)
        spac = d.values[d.ok, 2] - d.values[d.ok, 1]
        th = d.thetas[d.ok, 2]
        diff = (spac - th) ** 2 - th**2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        ident.append((scheme_name, abs(diff.mean()), 4 * se))

    ok = worst_gamma < 1e-9 and worst_phr < 1e-9 and all(d < t for _, d, t in ident)
    detail = (f"worst rel dev: gamma {worst_gamma:.2e}, hazard {worst_phr:.2e}; "
              + "; ".join(f"risk==E[theta^2] {s}: |{d:.4g}| < {t:.4g}" for s, d, t in ident))
    _report("5 risk-identities", ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_6_spacing_mixture():
    """Record spacing survival matches the memoryless mixture within 0.015
    at 1e5 replications for constant and geometric schemes, n = 3."""
    fam = families.proportional_hazard(families.Member.EXPONENTIAL)
    devs = {}
    for scheme_name, model, grid_hi in (
            ("constant", ParameterSequenceModel.constant(1.0), 8.0),
            ("geometric", ParameterSequenceModel.stochastic_geometric(True), 12.0)):
        cfg = SimulationConfig(family=fam, theta_model=model, n_target=3,
                               replications=10**5, master_seed=SEED + 7)
        devs[scheme_name] = montecarlo.spacing_survival_check(
            cfg, np.linspace(0.0, grid_hi, 33), threads=8)
    ok = all(d < 0.015 for d in devs.values())
    detail = ", ".join(f"{k}: sup dev {v:.4f}" for k, v in devs.items())
    _report("6 spacing-mixture", ok, detail)
    assert ok, detail


def test_criterion_7_asymptotic_trends():
    """Correlation of the record pair rises toward 1; risk/n matches 1/n for
    the unit-mean stationary case; normalized record times are near normal."""
    model = ParameterSequenceModel.constant(1.0)
    cors = []
    for n in (10, 25, 50):
        cors.append(asymptotics.frechet_correlation(model, n, 10**4, np.random.default_rng(SEED + n)))
    ok_corr = cors[0] < cors[1] < cors[2] and cors[-1] > 0.9

    points = asymptotics.risk_rate(model, [5, 10, 20, 40], 2 * 10**4, np.random.default_rng(SEED + 1))
    ok_rate = all(abs(p.risk - 1.0) <= 4 * p.se for p in points)

    _, _, t_star = asymptotics.normalized_sample(model, 30, 10**4, np.random.default_rng(SEED + 2))
    ks = sps.kstest(t_star, "norm").statistic
    ok_ks = ks < 0.1

    ok = ok_corr and ok_rate and ok_ks
    detail = (f"corr {', '.join(f'{c:.4f}' for c in cors)}; "
              f"risk at n=5..40: {', '.join(f'{p.risk:.3f}' for p in points)}; "
              f"T* KS {ks:.4f}")
    _report("7 asymptotic-trends", ok, detail)
    assert ok, detail


def test_criterion_8_determinism(tmp_path):
    """Seeded subcommands produce byte-identical result files across 1, 4
    and 8 worker threads and across repeated runs."""
    config = {
        "family": {"kind": "gamma_type", "member": "gamma", "p": 0.5},
        "theta_model": {"scheme": "ar_positive_error", "params": {}},
        "n_target": 3, "replications": 3000, "master_seed": SEED,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def blob(cmd, tag):
        out = tmp_path / tag
        assert cli.main(cmd + ["--out", str(out)]) == 0
        return b"".join(sorted(p.read_bytes() for p in out.iterdir()))

    sim = [blob(["simulate", "--config", str(cfg_path), "--threads", t], f"sim{i}")
           for i, t in enumerate(("1", "4", "8", "1"))]
    cv = [blob(["critvals", "--n-min", "2", "--n-max", "6", "--reps", "20000",
                "--seed", str(SEED), "--threads", t], f"cv{i}")
          for i, t in enumerate(("1", "4", "8", "1"))]
    ok = all(b == sim[0] for b in sim) and all(b == cv[0] for b in cv)
    detail = "simulate and critvals outputs identical over threads {1,4,8} and reruns"
    _report("8 determinism", ok, detail)
    assert ok, detail
