import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apolarkit
from apolarkit import cli
from apolarkit.cli import main, parse_family_flag, parse_field_flag, random_rational_points
from apolarkit.errors import ParseError
from apolarkit.fields import GF, QQ


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_field_and_family_flag_parsing():
    assert parse_field_flag("q") == QQ
    assert parse_field_flag("fp:7") == GF(7)
    assert parse_field_flag("fp2:5") == GF(5, 2)
    for bad in ("fp:4", "fp:x", "gf9", "fp2:6"):
        with pytest.raises(ParseError):
            parse_field_flag(bad)
    assert parse_family_flag("1,-1, 1 ,-1,1")[1] == -1
    with pytest.raises(ParseError):
        parse_family_flag("1,2,3")
    with pytest.raises(ParseError):
        parse_family_flag("1,2,3,4,five")


def test_random_rational_points_are_seeded_and_distinct():
    pts = random_rational_points(9, seed=0)
    assert pts == random_rational_points(9, seed=0)
    assert pts != random_rational_points(9, seed=1)
    seen = set()
    for pt in pts:
        lead = next(c for c in pt if c)
        seen.add(tuple(c / lead for c in pt))
    assert len(seen) == 9
    # pinned draws: the projective key decides which draws are kept
    assert pts == [
        (3, 4, -8, -1, 7, 6), (3, 0, 6, 2, 9, -3), (7, -5, 0, -5, -6, -1),
        (8, -5, 0, -6, -7, 1), (6, 8, -6, 2, 4, 1), (-3, 8, 6, 5, 7, -1),
        (-8, 8, -9, -7, 3, -9), (6, 1, -2, 1, -7, -3), (9, -2, -2, -5, 8, 5)]
    assert random_rational_points(10, seed=1) == [
        (-5, 9, -7, -1, -6, 6), (5, 6, 3, -3, -6, 6), (-9, 3, 4, -9, 5, -1),
        (-2, 9, -6, 1, -9, -9), (-9, 8, -9, 3, -3, 4), (-9, 7, -2, 5, 6, 8),
        (-2, 2, -2, -2, 5, 0), (-9, 4, 8, -6, -4, 0), (-6, 1, 7, 4, 7, -3),
        (0, 0, 9, 6, 7, 3)]


def test_apolar_family_report(capsys):
    rc, env = run_json(capsys, ["apolar", "--family", "1,-1,1,-1,1"])
    assert rc == 0
    assert env["tool"] == "apolarkit" and env["command"] == "apolar"
    assert len(env["input_sha256"]) == 64
    report = env["report"]
    assert report["hilbert_function"] == [1, 6, 6, 1]
    assert report["apolar_ideal_dims"]["2"] == 15
    assert report["partial_space_dim"] == 6
    assert len(report["qf_basis"]) == 15


# sha256 of the stdout of `apolar` at seed 0, qf_basis included; the
# canonical bases of Q_f must not change
APOLAR_STDOUT_SHA256 = {
    ("apolar", "--family", "1,-1,1,-1,1"):
        "ec9d4a00c9238121757435ef4eee3162a7f0ddeedbf16ba7960e772d768c82cc",
    ("--field", "fp:7", "apolar", "--family", "1,-1,1,-1,1"):
        "4996d6e662a6974134f690caf32e98b8988a7922f29144ccebaaf4f8c4f5e68d",
    ("apolar", "x0^3+x1*x2*x3"):
        "1219e47e2f31137ef2a78faa1f37e362e9bcab5c628033b925e14e83dd08a066",
}


@pytest.mark.parametrize("argv", sorted(APOLAR_STDOUT_SHA256))
def test_apolar_report_bytes_are_pinned(argv, capsys):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == APOLAR_STDOUT_SHA256[argv]


def test_apolar_of_a_constant_exits_3(capsys):
    assert main(["apolar", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition violated: apolar needs a form of "
                            "positive degree, got degree 0\n")


def test_missing_input_and_bad_field_exit_2(capsys):
    assert main(["apolar"]) == 2
    assert main(["--field", "fp:4", "apolar", "--family", "1,1,1,1,1"]) == 2
    assert main(["apolar", "x0^2+x1"]) == 2
    capsys.readouterr()


def test_fields_past_int64_codes_exit_2_at_once(capsys):
    # 2^63 + 29 and 2^89 - 1 are prime; GF(p) codes are int64, so both
    # are refused, and 2^89 - 1 is past the bound below which Miller-Rabin
    # on the bases 2..41 decides primality; trial division would not finish
    start = time.perf_counter()
    for p in (2 ** 63 + 29, 2 ** 89 - 1, 10 ** 24 + 7):
        assert main(["--field", "fp:%d" % p, "m2", "--family",
                     "1,-1,1,-1,1"]) == 2
        assert capsys.readouterr().err == (
            "parse error: bad field 'fp:%d': GF(p) needs a prime p < 2^63, "
            "got %d\n" % (p, p))
    p = 2 ** 89 - 1
    assert main(["--field", "fp2:%d" % p, "powersum", "--count", "5"]) == 2
    assert capsys.readouterr().err == (
        "parse error: bad field 'fp2:%d': primality is decided only below "
        "3317044064679887385961981, got %d\n" % (p, p))
    assert main(["--field", "fp:%d" % (2 ** 63 - 25), "catalog",
                 "family-basis"]) == 0
    capsys.readouterr()
    assert time.perf_counter() - start < 1


def test_argparse_rejections_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["repro", "no-such-case"])
    assert exc.value.code == 2


def test_negative_first_family_value_joins_the_flag_with_equals(capsys):
    # a bare "-5,..." reads as an option, so --family is left without a
    # value; "--family=-5,..." parses and reaches the member, whose
    # Betti table is not the generic one
    head = ["--field", "fp:5", "ranklocus"]
    tail = ["--restrict-plane", "--interpolate"]
    with pytest.raises(SystemExit) as exc:
        main(head + ["--family", "-5,3,3,2,-3"] + tail)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert main(head + ["--family=-5,3,3,2,-3"] + tail) == 3
    assert "precondition violated" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["m2", "--family", "1,-1,1,-1,1", "--samples", "-1"],
    ["ranklocus", "--family", "1,-1,1,-1,1", "--lines", "-1"],
    ["betti", "--points", "0"],
    ["betti", "--points", "-3"],
    ["betti", "--points", "3", "--max-i", "-1"],
    ["betti", "--points", "3", "--max-j", "-2"],
    ["betti", "--points", "3", "--max-row", "-1"],
    ["powersum", "--count", "0"],
    ["powersum", "--count", "-2"],
    # fields a subcommand cannot honour
    ["--field", "fp2:7", "apolar", "--family", "1,-1,1,-1,1"],
    ["--field", "fp2:7", "m2", "--family", "1,-1,1,-1,1"],
    ["--field", "fp:7", "betti", "--points", "9"],
    ["--field", "fp:7", "repro", "rank-scan"],
    ["--field", "fp2:5", "repro", "betti-generic"],
    # an unwritable report path and a negative rank threshold
    ["--out", "/nonexistent/dir/x.json", "apolar", "x0^3"],
    ["--field", "fp:101", "ranklocus", "--family", "1,-1,1,-1,1",
     "--threshold", "-5", "--lines", "1"],
    # two inputs at once: neither is silently dropped
    ["apolar", "x0^3", "--family", "1,1,1,1,1"],
    ["m2", "x0^3", "--family", "1,-1,1,-1,1"],
    ["ranklocus", "x0^3", "--family", "1,-1,1,-1,1"],
    ["betti", "x0^3", "--points", "3"],
    ["betti", "--family", "1,-1,1,-1,1", "--points", "3"],
    ["betti", "x0^3", "--family", "1,-1,1,-1,1", "--points", "3"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_inputs_exit_2_with_one_line(argv):
    src = os.path.dirname(os.path.dirname(apolarkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "apolarkit"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["apolar", "x0^99999"],
    ["betti", "--points", "9", "--max-row", "40"],
], ids=lambda argv: " ".join(argv))
def test_oversized_dense_bases_exit_3_with_one_line(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("precondition violated: ")
    assert len(err.strip().splitlines()) == 1


def test_field_contract_keeps_supported_fields(capsys):
    rc, env = run_json(capsys, ["--field", "fp:7", "betti", "--family",
                                "1,-1,1,-1,1"])
    assert rc == 0 and env["field"] == "GF(7)"
    rc, env = run_json(capsys, ["betti", "--points", "1", "--max-row", "0"])
    assert rc == 0 and env["field"] == "QQ"
    rc, env = run_json(capsys, ["--field", "fp2:5", "powersum", "--count", "3"])
    assert rc == 0 and env["field"] == "GF(5^2)"


def test_non_generic_cubic_exits_3(capsys):
    rc = main(["m2", "x0^3+x1^3+x2^3+x3^3+x4^3+x5^3"])
    assert rc == 3
    assert "precondition" in capsys.readouterr().err


def test_interpolation_without_plane_exits_3(capsys):
    rc = main(["--field", "fp:5", "ranklocus", "--family", "1,-1,1,-1,1",
               "--interpolate"])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("p", [13, 19, 23, 10007])
def test_interpolation_past_the_singular_scan_cap_exits_3(p):
    # the singular scan would cover P^2(F_{p^2}), 280,371 points at p = 23,
    # so the field is refused before any line of P^2(F_p) is drawn
    src = os.path.dirname(os.path.dirname(apolarkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "apolarkit", "--field", "fp:%d" % p,
         "ranklocus", "--family", "1,-1,1,-1,1", "--restrict-plane",
         "--interpolate"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("precondition violated: singular scan over F_%d: "
                           "more than 121 elements\n" % p ** 2)


def test_betti_family_matches_reference(capsys):
    rc = main(["--format", "text", "betti", "--family", "1,-1,1,-1,1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "matches_reference: generic-cubic" in out
    assert "35" in out


def test_betti_points_outputs_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["--seed", "3", "--out", None, "betti", "--points", "5"]
    for path in (a, b):
        argv[3] = str(path)
        assert main(list(argv)) == 0
    assert a.read_bytes() == b.read_bytes()
    env = json.loads(a.read_text())
    assert env["seed"] == 3
    assert env["report"]["input"] == "points(5, seed=3)"
    capsys.readouterr()


def test_m2_rank_samples(capsys):
    rc, env = run_json(capsys, ["m2", "--family", "1,-1,1,-1,1",
                                "--samples", "2"])
    assert rc == 0
    report = env["report"]
    assert report["shape"] == [35, 21]
    assert [s["rank"] for s in report["samples"]] == [21, 21]


# sha256 of the stdout of `m2` over a prime past 2^31, which has no numpy
# field arithmetic: the sampled rank is taken by Fraction elimination
M2_PAST_WORD_PRIME_ARGV = ["--field", "fp:2147483659", "m2",
                           "--family=1,-1,1,-1,1", "--samples", "1"]
M2_PAST_WORD_PRIME_SHA256 = \
    "887df4328989797b682305cb2750f5a4bbf0a7f17da5ad44f71efa3ac9bad309"


def test_m2_over_a_prime_past_2_31_is_pinned(capsys):
    assert main(list(M2_PAST_WORD_PRIME_ARGV)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() \
        == M2_PAST_WORD_PRIME_SHA256


def test_ranklocus_line_degrees_over_big_prime(capsys):
    rc, env = run_json(capsys, ["--field", "fp:101", "--seed", "1",
                                "ranklocus", "--family", "1,-1,1,-1,1",
                                "--lines", "2"])
    assert rc == 0
    assert env["report"]["line_degrees"] == [9, 9]


def test_ranklocus_interpolation_over_gf5(capsys):
    rc, env = run_json(capsys, ["--field", "fp:5", "ranklocus",
                                "--family", "1,-1,1,-1,1",
                                "--restrict-plane", "--interpolate"])
    assert rc == 0
    report = env["report"]
    assert report["matrix"].endswith("|plane")
    assert report["curve"] is not None
    assert len(report["singular_points"]) == 1
    assert report["classification"] == "node"


# sha256 of the stdout of `ranklocus` and of `repro thom-porteous`, all
# exiting 0; the rng draws of the line gcds must not change, whether a
# line is measured alone or stacked with the others of its call
RANKLOCUS_STDOUT_SHA256 = {
    ("--field", "fp:101", "--seed", "2", "ranklocus", "--family=-5,3,3,2,-3",
     "--lines", "5"):
        "181b6ae6fc4a165ecccc656dded5830e7277f89afc8b631ea20b14d116738258",
    ("--field", "fp:101", "--seed", "4", "ranklocus", "--family",
     "2,0,-3,-1,5", "--lines", "5"):
        "615b938f9b0602b4cd4cdb593af3585c87cb5e4f2de82613134c9d0cc0cfc51a",
    ("--seed", "3", "repro", "thom-porteous"):
        "bf304c63ebd1d3084a05da913ce332b4c8f7b61629269cd3218c7851acc08189",
    ("--field", "fp:101", "--seed", "0", "ranklocus", "--family",
     "1,-1,1,-1,1", "--threshold", "20"):
        "74afd60559d7a10992245a9b3e03f13a6bbfe40939683c09bb200de5a8f784be",
    ("--field", "fp:101", "--seed", "3", "ranklocus", "--family",
     "1,-1,1,-1,1", "--threshold", "19"):
        "9e6b842e3b0d094004a08b499c46ae90f54767540cd909b6c2923eec501e34e9",
    ("--field", "fp:5", "--seed", "0", "ranklocus", "--family",
     "1,-1,1,-1,1", "--restrict-plane", "--interpolate"):
        "b1b9a4eb1d4825cb840763e0472099fa5fb67c12d1d41dff0d32be380ed27ad5",
    ("--field", "fp:7", "--seed", "3", "ranklocus", "--family",
     "1,-1,1,-1,1", "--restrict-plane", "--interpolate"):
        "57923a66d425d91fea9db4eb042d6ace06e0ba0b1b09b87473076e49f332c427",
    ("--field", "fp:11", "--seed", "0", "ranklocus", "--family",
     "1,-1,1,-1,1", "--restrict-plane", "--interpolate"):
        "8768bc78aba0aa6a6ebe620fd24c0ac4ebbdae0e8151d5410f664f996751097e",
    # the text renderer prints the payload keys in the order the report
    # builds them
    ("--format", "text", "--field", "fp:5", "--seed", "0", "ranklocus",
     "--family", "1,-1,1,-1,1", "--restrict-plane", "--interpolate"):
        "20f621b6e714d73ff74b9615cfad74587757aff294cbea039855c964a966ce0b",
    ("--format", "text", "--field", "fp:5", "--seed", "3", "ranklocus",
     "--family", "1,-1,1,-1,1", "--restrict-plane", "--interpolate"):
        "4daa6bcb19fbac7aee9d66b61d2aabc7b62fca372ed7984a21f6ca9ce00e0538",
}


@pytest.mark.parametrize("argv", sorted(RANKLOCUS_STDOUT_SHA256))
def test_ranklocus_report_bytes_are_pinned(argv, capsys):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == RANKLOCUS_STDOUT_SHA256[argv]


def test_ranklocus_refuses_a_non_generic_member_before_any_line(
        capsys, monkeypatch):
    def no_lines(*args):
        raise AssertionError("a line was measured")

    monkeypatch.setattr(apolarkit.rankloci, "drop_degrees_on_lines", no_lines)
    assert main(["--field", "fp:101", "--seed", "1", "ranklocus", "--family",
                 "2,2,0,-2,3", "--lines", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition violated: apolar ideal has non-generic Betti table "
        "{(0, 0): 1, (1, 2): 15, (2, 3): 35, (2, 4): 4, (3, 4): 25, "
        "(3, 5): 25, (4, 5): 4, (4, 6): 35, (5, 7): 15, (6, 9): 1}\n")


def test_main_reuses_its_parser_without_changing_any_output(capsys):
    # argparse prints usage errors and --help to the streams current at
    # the call, so a parser built under other streams stays correct
    calls = [["--field", "fp:7", "catalog", "plane-substitution"],
             ["ranklocus", "--lines", "many"],
             ["--field", "fp:7", "apolar", "--family", "1,-1,1,-1,1"],
             ["m2", "--help"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 0]
    assert "invalid int value: 'many'" in reused[1][2]
    assert reused[3][1].startswith("usage: apolarkit m2")


def test_catalog_listing_and_lookup(capsys):
    rc, env = run_json(capsys, ["catalog"])
    assert rc == 0
    names = env["report"]["names"]
    assert "reference-drop-curve" in names and "veronese-quadrics" in names
    rc, env = run_json(capsys, ["catalog", "reference-drop-curve"])
    assert rc == 0
    assert "z0^9" in env["report"]["value"]
    # the stored curve is over GF(5), whatever --field says
    assert env["field"] == "GF(5)"
    rc, env5 = run_json(capsys, ["--field", "fp:5", "catalog",
                                 "reference-drop-curve"])
    assert rc == 0 and env5 == env
    for other in ("fp:7", "fp:101"):
        assert main(["--field", other, "catalog", "reference-drop-curve"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: the stored drop curve is over "
                                "GF(5), not GF(%s)\n" % other[3:])
    assert main(["catalog", "no-such-entry"]) == 2
    capsys.readouterr()


def test_powersum_routes_agree(capsys):
    rc, env = run_json(capsys, ["--seed", "2", "powersum", "--count", "5"])
    assert rc == 0
    report = env["report"]
    assert report["apolar_pointset"] and report["cube_span_membership"]
    rc, env = run_json(capsys, ["--seed", "4", "powersum", "--count", "10",
                                "--coplanar"])
    assert rc == 0
    assert env["report"]["routes_agree"]


# sha256 of the stdout of `powersum`, all exiting 0: the seeded draws,
# their text and both certificates must not change, over GF(p^2) on a
# tabled field (p = 5) and a Fraction-fallback one (p = 13), and over QQ
# and GF(101) at seeds 0 and 3, counts 6 and 10, with and without
# --coplanar
POWERSUM_STDOUT_SHA256 = {
    ("--field", "fp2:5", "--seed", "0", "powersum", "--count", "6",
     "--coplanar"):
        "45131f4cf4d9d1b3a04b8d8b57c5362167aab7bee21ee5f00a7f09f2899a13cb",
    ("--field", "fp2:5", "--seed", "3", "powersum", "--count", "6",
     "--coplanar"):
        "88478cbb816ec406e3cdcf140eaeb2b2306e0b89d1b89b1c5e0b8a4e530fc94a",
    ("--field", "fp2:13", "--seed", "0", "powersum", "--count", "5"):
        "a0261c732de052ee7a44faf89b54c0fe8bb8793a8c714f48437da1617ec17198",
    ("--field", "fp2:13", "--seed", "3", "powersum", "--count", "5"):
        "ebd85039bc5f8e0cd2b4218f6e2585665a34fefdf48c60f217f6b1d1b106a128",
    ("--field", "fp:101", "--seed", "0", "powersum", "--count", "10"):
        "19d6726f2506e610dca3db62e69681d7ae792bdc2e1b32ba3a0e701ec4819d46",
    ("--field", "fp:101", "--seed", "0", "powersum", "--count", "10",
     "--coplanar"):
        "25dc686ca88e2abba0e3bd86908c3b663646cdc54578adca12d5369f05d8aeef",
    ("--field", "fp:101", "--seed", "0", "powersum", "--count", "6"):
        "c052f37d9eec6eb00f7f9ae5ec0e5f9088f8c8f16f0a91d40b06c5f166deff08",
    ("--field", "fp:101", "--seed", "0", "powersum", "--count", "6",
     "--coplanar"):
        "0528a33c38ba46d97c2c13f191fb22e040f7ff3bee3df49d80904241d40f90c2",
    ("--field", "fp:101", "--seed", "3", "powersum", "--count", "10"):
        "2801381bd74cb9ccf932bb895983e3166b7dc53a3949c39c8f3265deecb33ebd",
    ("--field", "fp:101", "--seed", "3", "powersum", "--count", "10",
     "--coplanar"):
        "a24283c9f28f4b8851c039c2dc79585d6f62ecccec669672c0f13735cd39cf8b",
    ("--field", "fp:101", "--seed", "3", "powersum", "--count", "6"):
        "ef5c0d2840d9fed7776fb6edfaa8bf62c8617885dc8784427d894c8089ef3d56",
    ("--field", "fp:101", "--seed", "3", "powersum", "--count", "6",
     "--coplanar"):
        "1d90a6933e5af67065dee2d1cc63d5989c65bdcb375d345c66568efe53437f4b",
    ("--field", "q", "--seed", "0", "powersum", "--count", "10"):
        "59aa298aeb1af977ae4a57ff1294c00c2800c95a4086141a6cadbe270eabbcea",
    ("--field", "q", "--seed", "0", "powersum", "--count", "10",
     "--coplanar"):
        "a579119bd799326f009a44ed9a2618c48c45d479bdbf5e48a136a4dccc6c1b72",
    ("--field", "q", "--seed", "0", "powersum", "--count", "6"):
        "a364c1f09291b48aabbe1df2de705ec49761d2de88df8bda81faf41090315a79",
    ("--field", "q", "--seed", "0", "powersum", "--count", "6",
     "--coplanar"):
        "ef1a4cd14da79a8128c0bb4db4e323ee1a3c3071378597583936007c46d89040",
    ("--field", "q", "--seed", "3", "powersum", "--count", "10"):
        "f43c6ba900e12ca1ce6ad6d0b061d7d91132ac50af7da592096f4830def2f37c",
    ("--field", "q", "--seed", "3", "powersum", "--count", "10",
     "--coplanar"):
        "88a10c5449127c54d618152ffe38241d3ffd30aca0e1da788c8a48bcde772a66",
    ("--field", "q", "--seed", "3", "powersum", "--count", "6"):
        "0daf0e199687b6e5cd9ec931747bfc299aae0ed85c6fb951cbef91ff2402e267",
    ("--field", "q", "--seed", "3", "powersum", "--count", "6",
     "--coplanar"):
        "0eb27e63884f521c56b0629eda4c5bbc21d46cb5d638a4af08227a7da16e8b52",
}


@pytest.mark.parametrize("argv", sorted(POWERSUM_STDOUT_SHA256))
def test_powersum_report_bytes_are_pinned(argv, capsys):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == POWERSUM_STDOUT_SHA256[argv]


def test_powersum_redraws_a_form_equal_to_another_up_to_scale(capsys):
    # the first draw of seed 2 repeats a form up to scale over GF(7), which
    # the point set would refuse with exit 3
    rc, env = run_json(capsys, ["--field", "fp:7", "--seed", "2", "powersum",
                                "--count", "6", "--coplanar"])
    assert rc == 0
    assert env["report"]["routes_agree"]


def test_powersum_keeps_a_draw_that_takes_hundreds_of_tries(capsys):
    # 180 distinct points of P^5(F_5) take 66 whole draws on average, and
    # seed 6 takes 181; the report bytes were taken before the draw budget
    assert main(["--field", "fp:5", "--seed", "6", "powersum",
                 "--count", "180"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == (
        "5ccf4b7754e64030808a8860216fadf2a51a5b29a8b8613aa0b424b7699d95f7")


def test_powersum_refuses_counts_no_draw_reaches(capsys):
    # both used to redraw without end: P^5(F_2) has 63 points, and 300
    # distinct points of P^5(F_5) are almost never drawn
    for argv, message in (
            (["--field", "fp:2", "powersum", "--count", "64"],
             "P^5 over GF(2) has 63 points, fewer than 64 distinct forms"),
            (["--field", "fp:5", "powersum", "--count", "300"],
             "300 distinct points of P^5 over GF(5) take about 10^5.1 whole "
             "draws on average, more than 1000")):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "precondition violated: %s\n" % message


# sha256 of the stdout of `m2 --samples 3 --dump` for the paper member: the
# sample ranks, taken on the integer matrix at the point over QQ, and the
# entries, written straight from the coefficient layers, must not change
M2_DUMP_SHA256 = {
    ("--field", "q", "--seed", "0"):
        "7dc15afcdd30a4390b924b8d8202bbfceff08d79a42b786b650f27d6925a15ce",
    ("--field", "q", "--seed", "3"):
        "3a867c22a12e5514b41b95ae0db1cc962b1da6e3c0a80bcc77316ba1e6e9e6f9",
    ("--field", "fp:101", "--seed", "0"):
        "a91275aeaa8d13944019568ce457a6fd76489be2a1418880da3b72ac710a2faf",
    ("--field", "fp:101", "--seed", "3"):
        "6228eae025b0dbc24da52550cfeaaacc4451ea0e5f22b58090bb9f164157b593",
}


@pytest.mark.parametrize("flags", sorted(M2_DUMP_SHA256))
def test_m2_dump_bytes_are_pinned(flags, capsys):
    argv = list(flags) + ["m2", "--family=1,-1,1,-1,1", "--samples", "3",
                          "--dump"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == M2_DUMP_SHA256[flags]


def test_m2_refuses_gf_p2(capsys):
    # m2 has no GF(p^2) route; test_resolutions pins its GF(25) entries
    assert main(["--field", "fp2:5", "m2", "--family=1,-1,1,-1,1",
                 "--dump"]) == 2
    assert "m2 does not compute over GF(5^2)" in capsys.readouterr().err


def test_repro_betti_generic_passes(capsys):
    rc = main(["--format", "text", "repro", "betti-generic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS betti-table" in out
    assert "overall: PASS" in out


def test_repro_rank_scan_passes(capsys):
    rc, env = run_json(capsys, ["repro", "rank-scan"])
    assert rc == 0
    assert env["report"]["overall"] == "PASS"


def test_repro_drop_curve_reports_the_known_mismatch(tmp_path, capsys):
    # the computed curve is degree 9 with a unique nodal singular point,
    # but it is not the stored curve and the node is at (1:0:0); the case
    # exits 4 and says exactly which checks differ
    path = tmp_path / "drop.txt"
    rc = main(["--format", "text", "--out", str(path), "repro", "drop-curve"])
    assert rc == 4
    text = path.read_text()
    assert "PASS curve-degree" in text
    assert "FAIL matches-stored-reference" in text
    assert "PASS singular-point-count" in text
    assert "FAIL singular-point-location" in text
    assert "PASS node-classification" in text
    assert "overall: FAIL" in text
    capsys.readouterr()


# ---- fuzzing the command line -----------------------------------------

FUZZ_FIELDS = ["q", "fp:5", "fp:7", "fp:101", "fp2:5", "fp:four"]
FUZZ_FAMILIES = ["1,-1,1,-1,1", "1,4,2,3,3", "0,0,0,0,0", "1,5,0,0,0",
                 "1/5,1,1,1,1", "1/0,1,1,1,1", "1,2", "a,b,c,d,e"]
FUZZ_CATALOG = ["scroll-minors", "reference-betti", "plane-substitution",
                "no-such-entry"]
# QQ m2 and drop-curve interpolation take seconds each, so the cases that
# run them (drop-curve, scroll-example, veronese-rank-drop) are left out
FUZZ_REPRO = ["betti-generic", "points9", "thom-porteous", "rank-scan",
              "no-such-case"]


@st.composite
def _form_text(draw):
    """A form of degree <= 3 in x0..x5, or one of a few malformed texts."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["x0^2+x1", "x9", "2*", "", "y0^3"]))
    degree = draw(st.integers(0, 3))
    text = ""
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.integers(-3, 3))
        factors = ["x%d" % draw(st.integers(0, 5)) for _ in range(degree)]
        text += ("-" if c < 0 else "+") + "*".join([str(abs(c))] + factors)
    return text.lstrip("+")


def _flag(name):
    """The flag with a value in [-3, 3], or the flag left at its default."""
    return st.one_of(st.just([]),
                     st.integers(-3, 3).map(lambda v: [name, str(v)]))


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["apolar", "betti", "m2", "ranklocus",
                                    "catalog", "powersum", "repro"]))
    fields = FUZZ_FIELDS
    if command in ("m2", "ranklocus"):
        fields = [f for f in FUZZ_FIELDS if f != "q"]  # QQ m2 is slow
    argv = ["--field", draw(st.sampled_from(fields)),
            "--seed", str(draw(st.integers(0, 3))), command]
    form_or_family = st.one_of(
        _form_text().map(lambda t: [t]),
        st.sampled_from(FUZZ_FAMILIES).map(lambda v: ["--family", v]),
        st.just([]))
    if command == "apolar":
        argv += draw(form_or_family)
    elif command == "betti":
        argv += draw(st.one_of(form_or_family, _flag("--points")))
        for name in ("--max-i", "--max-j", "--max-row"):
            argv += draw(_flag(name))
    elif command == "m2":
        argv += draw(form_or_family) + draw(_flag("--samples"))
        argv += draw(st.sampled_from([[], ["--dump"]]))
    elif command == "ranklocus":
        argv += draw(form_or_family) + draw(_flag("--threshold"))
        argv += draw(_flag("--lines"))
        argv += draw(st.sampled_from([[], ["--restrict-plane"]]))
    elif command == "catalog":
        argv += draw(st.sampled_from([[]] + [[n] for n in FUZZ_CATALOG]))
    elif command == "powersum":
        argv += draw(_flag("--count"))
        argv += draw(st.sampled_from([[], ["--coplanar"]]))
    else:
        argv.append(draw(st.sampled_from(FUZZ_REPRO)))
    return argv


@given(argv=_cli_argv(), out=st.sampled_from([None, "file", "missing-dir"]))
@example(argv=["apolar", "x0^3"], out="missing-dir")
@example(argv=["--field", "fp:101", "ranklocus", "--family", "1,-1,1,-1,1",
               "--threshold", "-5", "--lines", "1"], out=None)
# dense monomial bases past forms.MAX_MONOMIALS: refused, not enumerated
@example(argv=["apolar", "x0^99999"], out=None)
@example(argv=["betti", "--points", "9", "--max-row", "40"], out=None)
@settings(max_examples=50, deadline=None)
def test_cli_fuzz_exits_with_a_documented_code(argv, out):
    with tempfile.TemporaryDirectory() as tmp:
        if out is not None:
            path = os.path.join(tmp, "report.json") if out == "file" \
                else os.path.join(tmp, "missing", "report.json")
            argv = ["--out", path] + argv
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse refusals
                rc = exc.code
                assert rc == 2
        assert rc in (0, 2, 3, 4), (rc, sink.getvalue())
