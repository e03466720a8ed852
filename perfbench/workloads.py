"""Workload schedules and output checks for the apolarkit benchmark.

Every op is a list of steps.  A step is either a CLI call, run in-process
through ``apolarkit.cli.main`` so that the JSON report bytes are the
output that gets checked, or one of the two library calls of
``worker.library_calls`` (power-sum certificates and the partial-rank
scan), which have no CLI subcommand.  Inputs depend only on the workload
seed; this module imports nothing from apolarkit, so generating them
never touches the program.
"""

import hashlib
import json
import random
import re
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The paper's family member; first op of syzygy-qq and ranklocus-fp.
PAPER_MEMBER = (1, -1, 1, -1, 1)

# catalog.SCROLL_APOLAR_CUBIC_TEXT, frozen here so the input stays fixed
# even if the catalog changes.  Its linear syzygies have 43-digit
# coefficients: the coefficient-growth case of syzygy-qq.
SCROLL_CUBIC = (
    "13*x0^3+51*x0^2*x1+141*x0^2*x2+6*x0^2*x3+9*x0^2*x4+33*x0^2*x5"
    "+141*x0*x1^2+498*x0*x1*x2+18*x0*x1*x3+66*x0*x1*x4-18*x0*x1*x5"
    "+681*x0*x2^2+66*x0*x2*x3-18*x0*x2*x4-6*x0*x2*x5+24*x0*x3^2"
    "+30*x0*x3*x4+126*x0*x3*x5+63*x0*x4^2+210*x0*x4*x5+387*x0*x5^2"
    "+83*x1^3+681*x1^2*x2+33*x1^2*x3-9*x1^2*x4-3*x1^2*x5+1401*x1*x2^2"
    "-18*x1*x2*x3-6*x1*x2*x4-882*x1*x2*x5+15*x1*x3^2+126*x1*x3*x4"
    "+210*x1*x3*x5+105*x1*x4^2+774*x1*x4*x5+825*x1*x5^2+1307*x2^3"
    "-3*x2^2*x3-441*x2^2*x4-1227*x2^2*x5+63*x2*x3^2+210*x2*x3*x4"
    "+774*x2*x3*x5+387*x2*x4^2+1650*x2*x4*x5+2763*x2*x5^2-3*x3^3"
    "-3*x3^2*x4+15*x3^2*x5+15*x3*x4^2-114*x3*x4*x5-93*x3*x5^2-19*x4^3"
    "-93*x4^2*x5-633*x4*x5^2-535*x5^3")

# catalog.reference_betti_tables() at the commit that defined the
# benchmark, as the [i, j, b] cells the betti report prints.
REFERENCE_CELLS = {
    9: [[0, 0, 1], [1, 2, 12], [2, 3, 25], [3, 4, 15], [3, 5, 6],
        [4, 6, 10], [5, 7, 3]],
    10: [[0, 0, 1], [1, 2, 11], [2, 3, 20], [3, 4, 5], [3, 5, 16],
         [4, 6, 15], [5, 7, 4]],
}

WORKLOADS = ("points-betti", "syzygy-qq", "ranklocus-fp", "powersum-certify")

# points-betti, syzygy-qq and ranklocus-fp run a fixed list of ops, the
# same at every speed: op cost differs by up to 20x between their inputs,
# so a run that stopped at a time limit would measure different work on a
# faster program.  run.py repeats the list, each time in a fresh worker,
# until --seconds have been measured.
#
# points-betti takes the CLI's point set 0 with 9 and then 10 points at
# every seed: in one process, point set 0 took 10.3-11.8 s and a seeded
# set 12.0-12.8 s.
#
# syzygy-qq and ranklocus-fp take the first members of fixed pools of
# family parameters, each member with its own sampling seed, so golden.json
# checks every ranklocus op byte for byte, and the m2 matrix of every
# syzygy op, at any seed.  Member cost is uneven (QQ m2 2.6-4.4 s; a GF(5)
# curve 1.8-9.4 s), so seeded members made throughput a matter of luck
# (IQR/median 14-35% over five seeds).  syzygy-qq varies with the seed
# only the QQ points its ranks are sampled at, which cost the same at any
# seed.  ranklocus-fp takes no input from the seed at all: every free
# choice in it is the sampling seed of a randomised step (GF(101) lines,
# the lines that pin the curve), and one member's GF(101) lines took
# 1.7-3.0 s over five seeds.  The ranklocus pool is drawn from [-5, 5]^5,
# and 4 of its 7 ops are refused mod 5 with exit 3; those refusals stay in
# as real family-sweep traffic.  The syzygy pool has nonzero parameters,
# which keep the Betti table generic over QQ.
SYZYGY_POOL_SEED = 1309
SYZYGY_POOL_SIZE = 4
RANKLOCUS_POOL_SEED = 1309
RANKLOCUS_POOL_SIZE = 6
SAMPLE_SEED_STRIDE = 1000  # seed 0 samples with the op's own seed

# The m2 matrix of this syzygy pool member has rank 20 at every point: at
# the 30 QQ points of seeds 0-9 and over GF(10007).  Its Betti table is
# generic, so it lies on the rank-drop locus of the family, not off it.
# Every other input must reach rank 21.
M2_RANK_20_FORMS = {"--family=1,4,2,3,3"}

# powersum-certify runs seeded ops until --seconds, in whole cycles of k
# (6 values) and coplanarity (every fourth op), so every run has the same
# mix of sizes at any speed.
POWERSUM_CYCLE = 12

# Inputs generated up front, inside set-up; a powersum-certify run ends
# early if it uses them all.
OPS_PER_RUN_LIMIT = 1008


class Step:
    """One call into the program: ``("cli", argv)`` or ``(name, args)``."""

    __slots__ = ("kind", "args", "key")

    def __init__(self, kind, args):
        self.kind = kind
        self.args = tuple(args)
        self.key = json.dumps([kind, list(self.args)])


class Op:
    __slots__ = ("steps", "meta")

    def __init__(self, steps, **meta):
        self.steps = steps
        self.meta = meta


def _family_flag(params):
    # one token: argparse would read "--family -1,..." as two options
    return "--family=" + ",".join(str(v) for v in params)


# ---- schedules --------------------------------------------------------


def _points_ops():
    # point set 0 of the CLI's own generator (criterion 2's seed 0)
    return [Op([Step("cli", ["--seed", "0", "betti", "--points", str(count)])],
               count=count) for count in (9, 10)]


def family_pool(seed, size, values):
    """Distinct family parameters, never the paper member, in draw order."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < size:
        params = tuple(rng.choice(values) for _ in range(5))
        if params != PAPER_MEMBER and params not in pool:
            pool.append(params)
    return pool


def _m2_step(form, sample_seed):
    return Step("cli", ["--seed", str(sample_seed), "m2", form,
                        "--samples", "3", "--dump"])


def syzygy_forms():
    """The m2 inputs in sweep order: paper member, scroll, then the pool."""
    nonzero = [v for v in range(-5, 6) if v]
    pool = family_pool(SYZYGY_POOL_SEED, SYZYGY_POOL_SIZE, nonzero)
    return [_family_flag(PAPER_MEMBER), SCROLL_CUBIC] + [_family_flag(p) for p in pool]


def _syzygy_ops(seed):
    return [Op([_m2_step(form, index + SAMPLE_SEED_STRIDE * seed)])
            for index, form in enumerate(syzygy_forms())]


def _member_steps(params, cli_seed):
    family = _family_flag(params)
    return [
        Step("cli", ["--field", "fp:101", "--seed", str(cli_seed),
                     "ranklocus", family, "--lines", "5"]),
        Step("cli", ["--field", "fp:5", "--seed", str(cli_seed), "ranklocus",
                     family, "--restrict-plane", "--interpolate"]),
        Step("rank_scan", [5, *params]),
    ]


def ranklocus_members():
    """(params, curve sampling seed) in sweep order, paper member first."""
    pool = family_pool(RANKLOCUS_POOL_SEED, RANKLOCUS_POOL_SIZE, range(-5, 6))
    return [(params, index) for index, params in enumerate([PAPER_MEMBER] + pool)]


def ranklocus_op(member, golden):
    params, cli_seed = member
    steps = _member_steps(params, cli_seed)
    lines = golden.get(steps[0].key, {})
    return Op(steps, lines_refused=lines.get("exit") == 3)


def _ranklocus_ops(golden):
    return [ranklocus_op(member, golden) for member in ranklocus_members()]


def _powersum_ops(seed):
    rng = random.Random(seed)
    i = 0
    while True:
        k = 5 + i % 6
        coplanar = i % 4 == 3
        ps_seed = rng.randrange(1 << 30)
        extra = [rng.randint(-7, 7) or 1 for _ in range(6)]
        yield Op([Step("powersum", [k, ps_seed, coplanar, *extra])])
        i += 1


def schedule(workload, seed, golden):
    """The ops of one worker; same seed, same inputs.

    A fixed list, except for powersum-certify, which never ends.  golden
    tells ranklocus-fp which members are refused over GF(101).
    """
    if workload == "points-betti":
        return _points_ops()
    if workload == "syzygy-qq":
        return _syzygy_ops(seed)
    if workload == "ranklocus-fp":
        return _ranklocus_ops(golden)
    if workload == "powersum-certify":
        return _powersum_ops(seed)
    raise ValueError("unknown workload %r" % workload)


def load_golden(workload):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


# ---- checks -----------------------------------------------------------


class Outcome:
    """What one step produced: exit code and streams, or a library value."""

    __slots__ = ("exit", "stdout", "stderr", "value", "error")

    def __init__(self, exit=None, stdout="", stderr="", value=None, error=None):
        self.exit = exit
        self.stdout = stdout
        self.stderr = stderr
        self.value = value
        self.error = error


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _matrix_key(step):
    """Seed-independent key of an m2 step: its input form."""
    return json.dumps(["m2-matrix", step.args[3]])


def golden_records(step, outcome):
    """What golden.json stores and compares for one step, by key.

    An m2 report adds a record keyed by its input alone: the digest of the
    dumped matrix and the largest sampled rank, which hold at every seed.
    """
    if step.kind != "cli":
        return {step.key: {"value": outcome.value}}
    records = {step.key: {"exit": outcome.exit,
                          "stdout_sha256": digest(outcome.stdout)}}
    if step.args[2] == "m2" and outcome.exit == 0:
        try:
            report = json.loads(outcome.stdout)["report"]
            records[_matrix_key(step)] = {
                "entries_sha256": digest(json.dumps(report["entries"],
                                                    sort_keys=True)),
                "rank": max(sample["rank"] for sample in report["samples"])}
        except (ValueError, KeyError, TypeError):
            pass  # the stdout record already differs from golden
    return records


def _clean_refusal(outcome):
    return (outcome.exit == 3 and outcome.stdout == ""
            and outcome.stderr.startswith("precondition violated:")
            and "Traceback" not in outcome.stderr)


def _report(outcome, errors):
    if outcome.exit != 0:
        errors.append("exit %s: %s" % (outcome.exit, outcome.stderr[:200]))
        return None
    try:
        return json.loads(outcome.stdout)["report"]
    except (ValueError, KeyError) as exc:
        errors.append("unreadable report: %s" % exc)
        return None


_TERM = re.compile(r"z(\d)(?:\^(\d+))?")


def _curve_degrees(text):
    """Total degree of every term of a polynomial in z0, z1, z2."""
    degrees = set()
    for term in re.split(r"(?<!\^)[+-]", text):
        if term:
            degrees.add(sum(int(e or 1) for _, e in _TERM.findall(term)))
    return degrees


def _check_points(op, outcomes, errors):
    report = _report(outcomes[0], errors)
    if report is None:
        return
    count = op.meta["count"]
    if report.get("cells") != REFERENCE_CELLS[count]:
        errors.append("Betti table differs from the points-%d reference" % count)
    if report.get("matches_reference") != "points-%d" % count:
        errors.append("matches_reference is %r" % report.get("matches_reference"))


def _check_syzygy(op, outcomes, errors):
    report = _report(outcomes[0], errors)
    if report is None:
        return
    if report.get("shape") != [35, 21]:
        errors.append("m2 shape %r" % report.get("shape"))
    expected = 20 if op.steps[0].args[3] in M2_RANK_20_FORMS else 21
    ranks = [s.get("rank") for s in report.get("samples", [])]
    if len(ranks) != 3 or max(ranks) != expected:
        errors.append("sampled ranks %r" % ranks)
    entries = report.get("entries", {})
    if (entries.get("rows"), entries.get("cols")) != (35, 21):
        errors.append("dumped entries are not 35x21")


def _check_ranklocus(op, outcomes, errors):
    lines, curve, scan = outcomes
    if op.meta["lines_refused"]:
        if not _clean_refusal(lines):
            errors.append("member refused over GF(101) at seed 0 but not now")
    else:
        report = _report(lines, errors)
        degrees = report.get("line_degrees") if report is not None else None
        if report is not None and degrees != [9] * 5:
            errors.append("line degrees %r" % degrees)
    if not _clean_refusal(curve):
        report = _report(curve, errors)
        if report is not None:
            text = report.get("curve") or ""
            if _curve_degrees(text) != {9}:
                errors.append("curve is not a degree-9 form: %r" % text[:80])
    if not (isinstance(scan.value, int) and 0 <= scan.value <= 6):
        errors.append("partial-rank minimum %r" % scan.value)


def _check_powersum(op, outcomes, errors):
    value = outcomes[0].value
    if not value or value.get("certificates") != [True, True, False, False]:
        errors.append("certificates %r, construction says [T, T, F, F]"
                      % (value or {}).get("certificates"))


CHECKS = {
    "points-betti": _check_points,
    "syzygy-qq": _check_syzygy,
    "ranklocus-fp": _check_ranklocus,
    "powersum-certify": _check_powersum,
}


def check_op(workload, op, outcomes, golden):
    """Errors for one op; an empty list means the op is correct."""
    errors = []
    for step, outcome in zip(op.steps, outcomes):
        if outcome.error is not None:
            errors.append("%s raised: %s" % (step.kind, outcome.error))
        elif "Traceback" in outcome.stderr:
            errors.append("%s printed a traceback" % step.kind)
        else:
            for key, record in golden_records(step, outcome).items():
                if key in golden and golden[key] != record:
                    errors.append("differs from golden: %s" % key[:120])
    if not errors:
        CHECKS[workload](op, outcomes, errors)
    return errors
