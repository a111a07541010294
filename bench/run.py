"""Layered benchmark of rla's claim verification.

    python3 bench/run.py --workload existence-gf3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. A round runs each claim of the workload the way
``rla verify --out`` does: ``verify_claim`` with the default single worker,
then ``TheoremReport.to_json``. Rounds repeat until ``--seconds`` have passed,
so every run measures whole rounds. The reports of the first round are checked
against bench/oracles.py, which does not import rla; each later round must
reproduce them byte for byte. The last line of standard output is one JSON
object: the end-to-end metrics, or with ``--trace 1`` the per-layer metrics of
a run with every layer boundary wrapped by bench/tracer.py.

The populations are exhaustive, so ``--seed`` changes no input; it only names
the run's output files under bench/runs/.
"""

import argparse
import os
import sys
import time


def _process_start() -> float:
    """CLOCK_BOOTTIME reading at which this process started (Linux)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return start_ticks / os.sysconf("SC_CLK_TCK")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "rla")):
    sys.exit(f"bench: no rla sources under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import rla  # noqa: E402

SETUP_S = time.clock_gettime(time.CLOCK_BOOTTIME) - _process_start()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import oracles  # noqa: E402
import selftest  # noqa: E402
import tracer  # noqa: E402

# workload -> (p, dim bound, claims run in order each round)
WORKLOADS = {
    "existence-gf3": (3, 3, ("Thm-3.3", "Cor-3.4")),
    "structure-gf3": (3, 3, ("Prop-2.5-dimformula", "Lem-2.6")),
    "enumerate-gf2": (2, 4, ("Prop-2.4",)),
}

LAYER_METRICS = [
    ("catalog.enumerate_s", "s"), ("catalog.instances", "count"),
    ("algebra.validate_s", "s"), ("algebra.validate_calls", "count"),
    ("algebra.ppow_vec_s", "s"), ("algebra.ppow_vec_calls", "count"),
    ("algebra.quotient_s", "s"), ("algebra.twist_pmap_s", "s"),
    ("linalg.elim_s", "s"), ("linalg.elim_calls", "count"),
    ("linalg.mat_pow_s", "s"), ("linalg.mat_pow_calls", "count"),
    ("linalg.complements_yielded", "count"),
    ("structure.center_s", "s"), ("structure.maximal_torus_s", "s"),
    ("structure.maximal_abelian_p_ideal_s", "s"),
    ("structure.codim1_max_p_ideals_s", "s"), ("structure.is_p_ideal_s", "s"),
    ("derivations.der_p_s", "s"), ("derivations.der_p_calls", "count"),
    ("derivations.find_square_zero_outer_s", "s"),
    ("derivations.find_nilpotent_outer_s", "s"),
    ("derivations.candidates_scanned", "count"),
    ("derivations.square_zero_absent", "count"),
    ("derivations.route.case", "count"),
    ("derivations.route.lifted_cocycle", "count"),
    ("derivations.route.exhaustive", "count"),
    ("derivations.route.h1_zero", "count"),
    ("cohomology.find_p_complement_s", "s"), ("cohomology.induced_module_s", "s"),
    ("cohomology.is_free_over_unipotent_s", "s"),
    ("cohomology.gamma_nontrivial_s", "s"), ("cohomology.lift_cocycle_s", "s"),
    ("harness.self_s", "s"), ("harness.report_json_s", "s"),
    ("harness.total_s", "s"),
]


def run_round(p, bound, claims, trace):
    """One round: (seconds, report texts, per-claim layer totals or None)."""
    texts, layers, seconds = [], [], 0.0
    for claim in claims:
        before = trace.snapshot() if trace else None
        t0 = time.perf_counter()
        text = rla.verify_claim(claim, p, bound, rla.Config(workers=1)).to_json()
        seconds += time.perf_counter() - t0
        texts.append(text)
        if trace:
            after = trace.snapshot()
            layers.append({k: v - before.get(k, 0) for k, v in after.items()})
    return seconds, texts, layers if trace else None


def cross_checks(workload, p, bound, claims, totals):
    """Per-round trace totals against closed forms, by paths apart from the
    reports."""
    errors = []
    want = oracles.population_total(p, bound) * len(claims)
    if totals.get("catalog.instances") != want:
        errors.append(f"catalog.instances {totals.get('catalog.instances')} != {want}")
    if workload == "existence-gf3":
        want = oracles.exception_total(p, bound) * len(claims)
        got = totals.get("derivations.square_zero_absent")
        if got != want:
            errors.append(f"find_square_zero_outer returned None {got} times, not {want}")
    if totals.get("derivations.route.unrouted"):
        errors.append("a find_square_zero_outer call ran no known route")
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    p, bound, claims = WORKLOADS[args.workload]

    errors = [f"self-test failed: {name}" for name in selftest.run()]
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        tracer.install(trace)

    rounds, first_texts = [], None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        seconds, texts, layers = run_round(p, bound, claims, trace)
        rounds.append((seconds, layers))
        if first_texts is None:
            first_texts = texts
        elif texts != first_texts:
            errors.append(f"round {len(rounds)} reports differ from the first round's")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside the timed region; a later round that reproduces the
    # first round's bytes inherits its result
    per_round_instances = 0
    failed_first, samples = 0, []
    for claim, text in zip(claims, first_texts):
        report = json.loads(text)
        per_round_instances += len(report["instances"])
        failed, report_errors, claim_samples = oracles.check_report(claim, p, bound, report)
        failed_first += failed
        errors += [f"{claim}: {e}" for e in report_errors]
        samples += [f"{claim}: {s}" for s in claim_samples]
    attempted = per_round_instances * len(rounds)
    failed = failed_first * len(rounds)

    wall = [seconds for seconds, _ in rounds]
    if trace:
        round_totals = []
        for seconds, layers in rounds:
            totals = {}
            for claim_layers in layers:
                for k, v in claim_layers.items():
                    totals[k] = totals.get(k, 0) + v
            totals["harness.total_s"] = seconds
            errors += cross_checks(args.workload, p, bound, claims, totals)
            round_totals.append(totals)
        metrics = {name: {"value": statistics.median(t.get(name, 0) for t in round_totals),
                          "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        wall_s = statistics.median(wall)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "instances_per_s": {"value": per_round_instances / wall_s, "unit": "1/s"},
            "setup_s": {"value": SETUP_S, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    out_dir = os.path.join(ROOT, "bench", "runs")
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "round_wall_s": wall, "errors": errors, "fault_samples": samples,
              "metrics": metrics}
    if trace:
        record["claim_runs"] = [dict(zip(claims, layers)) for _, layers in rounds]
    name = f"{'trace' if trace else 'run'}-{args.workload}-seed{args.seed}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for line in errors + samples:
        print(f"bench: {line}", file=sys.stderr)

    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
