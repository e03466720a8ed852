"""One benchmark process: set up, run a closed loop of ops, check outputs.

Started by run.py in a fresh interpreter, so the program's in-process
caches start cold as they do for a CLI user.  Prints one JSON object on
its last stdout line.  With --trace the layer wrappers of spans.py are
installed before the first op; untraced runs never import them.
"""

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
import traceback

import workloads


def _run_cli(cli, argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def library_calls():
    """The library steps: calls with no CLI subcommand."""
    # names are looked up at call time, so traced runs see the wrappers
    from apolarkit import apolarity, catalog, fields, forms

    def powersum(k, seed, coplanar, *extra):
        # criterion 11: f is a sum of k cubes, f + l^3 is not
        QQ = fields.QQ
        summands, _, f = catalog.random_power_sum(k, QQ, seed, coplanar=coplanar)
        Z = apolarity.PointSet([g.coeffs for g in summands], QQ,
                               allow_duplicates=False)
        bad = f + forms.HomogeneousForm.linear(list(extra), QQ, "x").power(3)
        certificates = [apolarity.is_apolar_pointset(Z, f),
                        apolarity.cube_span_contains(Z, f),
                        apolarity.is_apolar_pointset(Z, bad),
                        apolarity.cube_span_contains(Z, bad)]
        return {"cubic": f, "certificates": certificates}

    def rank_scan(p, *params):
        f = catalog.cubic_family(*params, field=fields.GF(p))
        return apolarity.min_partial_rank_scan(f)

    return {"powersum": powersum, "rank_scan": rank_scan}


def _finish_value(value):
    """Make a library result JSON-ready; done outside the timed phase."""
    if isinstance(value, dict) and "cubic" in value:
        return {"cubic_sha256": workloads.digest(value["cubic"].to_text()),
                "certificates": value["certificates"]}
    return value


def execute(step, cli, library):
    """Run one step; a library value is raw until _finish_value."""
    try:
        if step.kind == "cli":
            code, out, err = _run_cli(cli, step.args)
            return workloads.Outcome(exit=code, stdout=out, stderr=err)
        return workloads.Outcome(value=library[step.kind](*step.args))
    except Exception:  # an op that raises is a failed op, not a crash
        return workloads.Outcome(error=traceback.format_exc(limit=3))


def run_op(op, cli, library):
    """Execute and finish one op outside any timed phase (capture, tests)."""
    outcomes = [execute(step, cli, library) for step in op.steps]
    for outcome in outcomes:
        outcome.value = _finish_value(outcome.value)
    return outcomes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    # ---- set-up: imports, numpy, GF(25) tables, input generation
    import numpy

    from apolarkit import cli, fields, modular

    # the program builds the GF(25) tables on first use; building them here
    # puts them in setup_s, beside the imports
    modular.quadratic_tables(fields.GF(5, 2))
    library = library_calls()
    golden = workloads.load_golden(args.workload)
    ops = list(itertools.islice(
        workloads.schedule(args.workload, args.seed, golden),
        workloads.OPS_PER_RUN_LIMIT))
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_monotonic": ready}))
        return 0

    # ---- timed phase: one caller, each op sent after the last finishes.
    # A fixed list runs to its end; powersum-certify stops at the first
    # whole cycle after --seconds.
    results = []
    start = time.perf_counter()
    deadline = start + args.seconds
    for index, op in enumerate(ops):
        if (args.workload == "powersum-certify" and results
                and index % workloads.POWERSUM_CYCLE == 0
                and time.perf_counter() >= deadline):
            break
        t0 = time.perf_counter()
        if recorder is not None:
            with recorder.op(index):
                outcomes = [execute(s, cli, library) for s in op.steps]
        else:
            outcomes = [execute(s, cli, library) for s in op.steps]
        results.append((op, outcomes, time.perf_counter() - t0))
    phase = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # ---- checks, outside the timed phase
    report_ops = []
    for op, outcomes, seconds in results:
        for outcome in outcomes:
            outcome.value = _finish_value(outcome.value)
        errors = workloads.check_op(args.workload, op, outcomes, golden)
        refused = any(o.exit == 3 for o in outcomes)
        report_ops.append({"seconds": seconds, "errors": errors,
                           "refused": refused})
    result = {"ready_monotonic": ready, "phase_s": phase,
              "peak_rss_kb": peak_rss_kb, "numpy": numpy.__version__,
              "ops": report_ops}
    if recorder is not None:
        result["layers"] = recorder.summary()
        result["span_errors"] = recorder.check_self_times()
        if args.spans_out:
            recorder.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
