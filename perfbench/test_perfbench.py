"""Tests of the benchmark itself, not of apolarkit.

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def first_ops(workload, seed, count):
    golden = workloads.load_golden(workload)
    return list(itertools.islice(workloads.schedule(workload, seed, golden), count))


def run_op(op):
    from apolarkit import cli

    return worker.run_op(op, cli, worker.library_calls())


def _keys(workload, seed):
    return [s.key for op in first_ops(workload, seed, 6) for s in op.steps]


@pytest.mark.parametrize("workload", ["syzygy-qq", "powersum-certify"])
def test_seed_decides_the_inputs(workload):
    assert _keys(workload, 0) == _keys(workload, 0)
    assert _keys(workload, 0) != _keys(workload, 1)


def test_points_inputs_are_fixed_and_golden():
    golden = workloads.load_golden("points-betti")
    assert _keys("points-betti", 0) == _keys("points-betti", 5)
    ops = first_ops("points-betti", 0, 8)
    assert [op.steps[0].args for op in ops] == [
        ("--seed", "0", "betti", "--points", "9"),
        ("--seed", "0", "betti", "--points", "10")]
    assert all(op.steps[0].key in golden for op in ops)


@pytest.mark.parametrize("workload, count", [
    ("points-betti", 2), ("syzygy-qq", 6), ("ranklocus-fp", 7)])
def test_fixed_workloads_are_op_lists_of_fixed_length(workload, count):
    for seed in (0, 1):
        ops = workloads.schedule(workload, seed, {})
        assert isinstance(ops, list) and len(ops) == count


def test_powersum_run_stops_at_a_whole_cycle(capsys):
    assert worker.main(["--workload", "powersum-certify", "--seed", "0",
                        "--seconds", "0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(report["ops"]) == workloads.POWERSUM_CYCLE
    assert not any(op["errors"] for op in report["ops"])


def test_syzygy_matrices_are_checked_at_every_seed():
    golden = workloads.load_golden("syzygy-qq")
    for op in first_ops("syzygy-qq", 7, 6):
        assert workloads._matrix_key(op.steps[0]) in golden


def _m2_outcome(ranks):
    report = {"shape": [35, 21], "entries": {"rows": 35, "cols": 21},
              "samples": [{"rank": r} for r in ranks]}
    return workloads.Outcome(exit=0, stdout=json.dumps({"report": report}))


def test_m2_rank_must_be_21_except_on_the_rank_drop_member():
    ops = first_ops("syzygy-qq", 0, 6)
    paper = ops[0]
    (dropping,) = [op for op in ops
                   if op.steps[0].args[3] in workloads.M2_RANK_20_FORMS]
    check = workloads.check_op
    assert check("syzygy-qq", paper, [_m2_outcome([21, 21, 21])], {}) == []
    assert check("syzygy-qq", paper, [_m2_outcome([20, 20, 20])], {})
    assert check("syzygy-qq", dropping, [_m2_outcome([20, 20, 20])], {}) == []
    assert check("syzygy-qq", dropping, [_m2_outcome([21, 20, 20])], {})


def test_ranklocus_sweeps_its_pool_at_any_seed():
    golden = workloads.load_golden("ranklocus-fp")
    members = workloads.ranklocus_members()
    assert members[0] == (workloads.PAPER_MEMBER, 0)
    ops = first_ops("ranklocus-fp", 0, len(members))
    assert _keys("ranklocus-fp", 0) == _keys("ranklocus-fp", 1)
    assert all(step.key in golden for op in ops for step in op.steps)
    refused = [any(golden[s.key].get("exit") == 3 for s in op.steps) for op in ops]
    assert 0.3 < sum(refused) / len(refused) < 0.7


@pytest.fixture(scope="module")
def powersum_case():
    op = first_ops("powersum-certify", 0, 1)[0]
    return op, run_op(op), workloads.load_golden("powersum-certify")


@pytest.fixture(scope="module")
def ranklocus_case():
    op = workloads.ranklocus_op((workloads.PAPER_MEMBER, 0), {})
    return op, run_op(op), workloads.load_golden("ranklocus-fp")


def test_library_op_matches_golden(powersum_case):
    op, outcomes, golden = powersum_case
    assert op.steps[0].key in golden
    assert workloads.check_op("powersum-certify", op, outcomes, golden) == []


def test_corrupted_library_golden_fails_the_op(powersum_case):
    op, outcomes, golden = powersum_case
    key = op.steps[0].key
    value = dict(golden[key]["value"], cubic_sha256="0" * 64)
    corrupted = dict(golden, **{key: {"value": value}})
    assert workloads.check_op("powersum-certify", op, outcomes, corrupted)


def test_wrong_certificate_fails_the_op_without_golden(powersum_case):
    op, outcomes, _ = powersum_case
    wrong = workloads.Outcome(value=dict(outcomes[0].value,
                                         certificates=[True, True, True, True]))
    assert workloads.check_op("powersum-certify", op, [wrong], {})


def test_cli_op_matches_golden(ranklocus_case):
    op, outcomes, golden = ranklocus_case
    assert [o.exit for o in outcomes[:2]] == [0, 0]
    assert workloads.check_op("ranklocus-fp", op, outcomes, golden) == []
    assert workloads.check_op("ranklocus-fp", op, outcomes, {}) == []


def test_corrupted_cli_golden_fails_the_op(ranklocus_case):
    op, outcomes, golden = ranklocus_case
    key = op.steps[1].key
    corrupted = dict(golden, **{key: dict(golden[key], stdout_sha256="0" * 64)})
    assert workloads.check_op("ranklocus-fp", op, outcomes, corrupted)


def _replaced(outcomes, index, **fields):
    out = list(outcomes)
    old = out[index]
    values = {name: getattr(old, name) for name in workloads.Outcome.__slots__}
    values.update(fields)
    out[index] = workloads.Outcome(**values)
    return out


@pytest.mark.parametrize("golden_on", [True, False])
def test_injected_wrong_report_fails_the_op(ranklocus_case, golden_on):
    op, outcomes, golden = ranklocus_case
    golden = golden if golden_on else {}
    lines = outcomes[0].stdout.replace(
        '"line_degrees": [\n      9', '"line_degrees": [\n      10', 1)
    assert lines != outcomes[0].stdout
    assert workloads.check_op("ranklocus-fp", op,
                              _replaced(outcomes, 0, stdout=lines), golden)
    report = json.loads(outcomes[1].stdout)
    report["report"]["curve"] = "z0^8+" + report["report"]["curve"]
    curve = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert workloads.check_op("ranklocus-fp", op,
                              _replaced(outcomes, 1, stdout=curve), golden)


def test_traceback_or_unexpected_exit_fails_the_op(ranklocus_case):
    op, outcomes, _ = ranklocus_case
    refusal = "precondition violated: no curve\n"
    clean = _replaced(outcomes, 1, exit=3, stdout="", stderr=refusal)
    assert workloads.check_op("ranklocus-fp", op, clean, {}) == []
    noisy = _replaced(outcomes, 1, exit=3, stdout="",
                      stderr="Traceback (most recent call last):\n" + refusal)
    assert workloads.check_op("ranklocus-fp", op, noisy, {})
    crashed = _replaced(outcomes, 1, exit=1, stdout="", stderr="")
    assert workloads.check_op("ranklocus-fp", op, crashed, {})


def test_span_self_times_add_up_to_each_op():
    from apolarkit import apolarity, cli, resolutions

    original = apolarity.is_apolar_pointset
    original_betti = resolutions.graded_betti
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        # a name imported into another module is wrapped there too
        assert cli.graded_betti is resolutions.graded_betti
        assert cli.graded_betti.__wrapped__ is original_betti
        for index, op in enumerate(first_ops("powersum-certify", 3, 2)):
            with recorder.op(index):
                run_op(op)
    finally:
        spans.uninstall(patches)
    assert apolarity.is_apolar_pointset is original
    assert recorder.check_self_times() == []
    own = recorder.self_times()
    for op_id in (0, 1):
        members = [i for i, s in enumerate(recorder.spans) if s[4] == op_id]
        root = next(recorder.spans[i] for i in members if recorder.spans[i][3] < 0)
        total = sum(own[i] for i in members)
        assert total == pytest.approx(root[2] - root[1], abs=1e-9)
    summary = recorder.summary()
    assert summary["apolarity.is_apolar_pointset.calls"] == 4
    assert summary["catalog.random_power_sum.calls"] == 2
    assert summary["linalg.kernel_basis.out_max_bits"] > 0
    assert set(summary) == set(spans.metric_units())


def test_missing_span_target_fails_the_install(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", (
        ("linalg.rank", "apolarkit.linalg", "ExactMatrix.no_such_method"),))
    with pytest.raises(LookupError):
        spans.install(spans.Recorder())


def test_span_check_catches_a_lost_child():
    recorder = spans.Recorder()
    with recorder.op(0):
        recorder.spans.append((1, 0.0, 1e9, 0, 0))  # longer than its op
    assert recorder.check_self_times()


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "powersum-certify",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line_names_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench(ROOT, "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert [m["name"] for m in declared[group]] == list(result["metrics"])
        for metric in declared[group]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
