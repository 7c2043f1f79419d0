"""The lib-sweep job: one long-lived library process, a notebook user.

    python3 bench/sweep.py PARAMS RESULT TRACE

Steps through distinct (drift, eta, n_nodes) settings and never repeats
one, so every operator is cold on first use.  Each setting derives the
constants, takes a two-step law (the first apply builds the operator), the
invariant measure and a TV decay curve; OU settings are checked against
the exact AR(1) laws.  One check at a grid above DENSE_MATRIX_LIMIT takes
the matrix-free path, and per eta an EM path ensemble started from the
invariant measure is compared with it by binned TV and KS.  A job that
misses a check or raises is recorded as failed and the sweep goes on.
"""

import json
import sys
import time
import traceback

import oracle

ORACLE_TOL = 1e-6          # the acceptance tolerance for OU oracles
FIXED_POINT_TOL = 1e-8     # 10 * INVARIANT_TOL, as the CLI invariant check
RATE_REL_TOL = 0.1         # the acceptance window for fitted AR(1) rates
# statistical envelopes with a false-alarm rate near 1e-8 per check, so the
# gate stays silent on a correct program across thousands of seeded runs
BINNED_TV_SE = 6.0
KS_LEVEL = 1.0 - 1e-8


def run_sweep(p, results):
    from emergolab import drifts, empirical, kernel, rates, simulate
    x0 = p["x0"]
    worst = 0.0

    def oracle_ok(tv):
        nonlocal worst
        worst = max(worst, tv)
        return tv <= ORACLE_TOL

    def job(name, fn):
        try:
            detail = fn()
            results.append([name, not detail, detail])
        except Exception:  # noqa: BLE001 - one bad job must not hide others
            results.append([name, False, traceback.format_exc(limit=3)])

    for kind in ("ou", "bounded"):
        spec = (drifts.ornstein_uhlenbeck() if kind == "ou"
                else drifts.bounded_perturbation())
        for eta in p["etas"]:
            pis = {}
            for n in p["nodes"]:
                def setting(eta=eta, n=n):
                    bad = []
                    drifts.derive_constants(spec, eta)
                    grid = kernel.default_grid(spec, eta, n_nodes=n)
                    two = kernel.n_step_from_point(spec, eta, x0, 2, grid)
                    pi = kernel.invariant_measure(spec, eta, grid).measure
                    pis[n] = pi
                    fixed = kernel.tv_distance(
                        pi, kernel.apply_kernel(spec, eta, pi))
                    curve = rates.tv_decay_curve(spec, eta, x0, p["n_curve"],
                                                 grid=grid)
                    fit = rates.fit_geometric_rate(curve)
                    if fixed > FIXED_POINT_TOL:
                        bad.append(f"fixed_point_tv={fixed!r}")
                    if max(two.tail_bound, pi.tail_bound) > ORACLE_TOL:
                        bad.append("tail bound above tolerance")
                    if kind == "ou":
                        law = oracle.ar1_law(eta)
                        if not oracle_ok(oracle.density_tv(
                                grid.nodes, pi.density, *law)):
                            bad.append("invariant misses the AR(1) oracle")
                        if not oracle_ok(oracle.density_tv(
                                grid.nodes, two.density,
                                *oracle.ar1_law(eta, x0, 2))):
                            bad.append("two-step law misses the oracle")
                        exact = [oracle.density_tv(
                            grid.nodes, oracle.normal_pdf(
                                grid.nodes, *oracle.ar1_law(eta, x0, k)), *law)
                            for k in range(1, p["n_curve"] + 1)]
                        if not oracle_ok(max(abs(a - b) for a, b
                                             in zip(curve.values, exact))):
                            bad.append("decay curve misses the oracle")
                        rate = 1.0 / (1.0 - eta)
                        if abs(fit.delta_hat - rate) > RATE_REL_TOL * rate:
                            bad.append(f"delta_hat={fit.delta_hat!r}")
                    return "; ".join(bad)
                job(f"{kind}-eta{eta}-n{n}", setting)
            if kind != "ou":
                continue

            def ensemble(eta=eta):
                pi = pis[max(p["nodes"])]
                cfg = simulate.PathConfig(eta, p["path_steps"],
                                          p["path_seed"], x0=pi)
                final = simulate.sample_paths(spec, cfg, p["n_paths"])[:, -1]
                edges = empirical.coarse_bin_edges(pi)
                q = empirical.binned_probabilities(pi, edges)
                btv = empirical.binned_tv(final, pi, edges)
                ks = empirical.ks_statistic(final, pi.cdf_at)
                bad = []
                if btv > empirical.binned_tv_envelope(q, final.size,
                                                      BINNED_TV_SE):
                    bad.append(f"binned_tv={btv!r}")
                if ks > empirical.dkw_envelope(final.size, KS_LEVEL):
                    bad.append(f"ks={ks!r}")
                return "; ".join(bad)
            job(f"ensemble-eta{eta}", ensemble)

    def fine_grid():
        eta = p["fine_eta"]
        spec = drifts.ornstein_uhlenbeck()
        grid = kernel.default_grid(spec, eta, n_nodes=p["fine_nodes"])
        law = kernel.n_step_from_point(spec, eta, x0, p["fine_steps"], grid)
        tv = oracle.density_tv(grid.nodes, law.density,
                               *oracle.ar1_law(eta, x0, p["fine_steps"]))
        return "" if oracle_ok(tv) else f"fine-grid oracle tv={tv!r}"
    job("fine-grid", fine_grid)
    return worst


def main(argv) -> int:
    params, result_path, trace = argv[0], argv[1], argv[2] == "1"
    t0 = time.perf_counter()
    import emergolab  # noqa: F401 - the timed library import
    record = {"import_s": time.perf_counter() - t0}
    with open(params) as fh:
        p = json.load(fh)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(run_id="lib-sweep")
        tracer.install()
    jobs = []
    try:
        record["oracle_tv_max"] = run_sweep(p, jobs)
    finally:
        record["jobs"] = jobs
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(result_path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
