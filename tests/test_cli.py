"""CLI surface: golden files, exit codes, byte determinism."""

import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from valperm import cli, kernels
from valperm.cli import main
from valperm.jsonio import InputError, parse_frac

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

SPIKED = {"n": 3, "heights": {"123": "1", "132": "0", "213": "0",
                              "231": "0", "312": "0", "321": "0"}}
TWO_PITS = {"n": 3, "heights": {"123": "-1", "132": "0", "213": "0",
                                "231": "0", "312": "0", "321": "-1"}}


def run(tmp_path, *args, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--output", str(out)])
    return code, (out.read_bytes() if out.exists() else None)


def write(tmp_path, obj, name):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_golden_chain(tmp_path):
    code, trop = run(tmp_path, "tropicalize", str(GOLDEN / "matrix_a.json"), name="t.json")
    assert code == 0
    assert trop == (GOLDEN / "tropicalize_a.json").read_bytes()

    code, heights = run(tmp_path, "compress", str(tmp_path / "t.json"), name="h.json")
    assert code == 0
    assert heights == (GOLDEN / "compress_a.json").read_bytes()

    code, cells = run(tmp_path, "subdivide", str(tmp_path / "h.json"), name="c.json")
    assert code == 0
    assert cells == (GOLDEN / "subdivide_a.json").read_bytes()

    code, skel = run(tmp_path, "skeleton", str(tmp_path / "h.json"), name="s.json")
    assert code == 0
    assert skel == (GOLDEN / "skeleton_a.json").read_bytes()


def test_golden_chain_under_optimize(tmp_path):
    # python -O strips every assert: the chain's outputs must not rest on one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    optimize = subprocess.run([sys.executable, "-O", "-c", "import sys; print(sys.flags.optimize)"],
                              env=env, capture_output=True, text=True, check=True)
    assert optimize.stdout.strip() == "1"
    chain = (
        ("tropicalize", GOLDEN / "matrix_a.json", "t.json", "tropicalize_a.json"),
        ("compress", tmp_path / "t.json", "h.json", "compress_a.json"),
        ("subdivide", tmp_path / "h.json", "c.json", "subdivide_a.json"),
        ("skeleton", tmp_path / "h.json", "s.json", "skeleton_a.json"),
    )
    for command, source, out, golden in chain:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "valperm.cli", command, str(source),
             "--output", str(tmp_path / out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / out).read_bytes() == (GOLDEN / golden).read_bytes()


def test_byte_determinism(tmp_path):
    _, first = run(tmp_path, "tropicalize", str(GOLDEN / "matrix_a.json"), name="a.json")
    _, second = run(tmp_path, "tropicalize", str(GOLDEN / "matrix_a.json"), name="b.json")
    assert first == second
    _, f1 = run(tmp_path, "fan", "3", "--census", "--patterns", name="f1.json")
    _, f2 = run(tmp_path, "fan", "3", "--census", "--patterns", name="f2.json")
    assert f1 == f2


def test_check_pass_paths(tmp_path):
    for kind in ("plucker", "incidence", "positive", "flag"):
        code, out = run(tmp_path, "check", kind, str(GOLDEN / "flag_a.json"),
                        name=f"{kind}.json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["violations"] == []
        assert report["command"] == "check"
        assert "input_sha256" in report and "version" in report


def test_check_plucker_violation(tmp_path):
    code, out = run(tmp_path, "check", "plucker", str(GOLDEN / "u24_plucker_fail.json"))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    (violation,) = report["violations"]
    assert violation["subset"] == ""
    assert violation["elems"] == [1, 2, 3, 4]
    assert violation["terms"] == ["0", "2", "2"]


def test_check_incidence_violation(tmp_path):
    pair = [
        {"n": 3, "d": 1, "values": {"1": "2", "2": "1", "3": "0"}},
        {"n": 3, "d": 2, "values": {"12": "0", "13": "0", "23": "0"}},
    ]
    code, out = run(tmp_path, "check", "incidence", write(tmp_path, pair, "pair.json"))
    assert code == 1
    report = json.loads(out)
    assert report["violations"][0]["check"] == "incidence"
    assert report["violations"][0]["terms"] == ["2", "1", "0"]


def test_check_input_errors(tmp_path, capsys):
    single = [{"n": 3, "d": 1, "values": {"1": "0", "2": "0", "3": "0"}}]
    assert main(["check", "incidence", write(tmp_path, single, "one.json")]) == 2
    assert main(["check", "flag", write(tmp_path, single, "one2.json")]) == 2
    mixed = single + [{"n": 4, "d": 2, "values": {"12": "0", "13": "0", "14": "0",
                                                  "23": "0", "24": "0", "34": "0"}}]
    assert main(["check", "flag", write(tmp_path, mixed, "mixed.json")]) == 2
    partial = {"n": 4, "d": 2, "values": {"12": "0", "13": "0", "14": "0", "23": "0",
                                          "24": "0"}}
    assert main(["check", "positive", write(tmp_path, partial, "partial.json")]) == 2
    assert main(["check", "plucker", str(tmp_path / "does-not-exist.json")]) == 2
    capsys.readouterr()
    # reading a path below a regular file raises NotADirectoryError
    assert main(["check", "plucker", str(GOLDEN / "flag_a.json" / "x")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: error: ")


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["skeleton", str(bad)]) == 2
    assert main(["check", "plucker", write(tmp_path, {"n": 3, "d": 2}, "novals.json")]) == 2
    vm = {"n": 3, "d": 2, "values": {"21": "0"}}
    assert main(["check", "plucker", write(tmp_path, vm, "badkey.json")]) == 2
    vm = {"n": 3, "d": 2, "values": {"12": "1/0"}}
    assert main(["check", "plucker", write(tmp_path, vm, "badfrac.json")]) == 2


def test_subset_key_with_digit_zero_exits_2(tmp_path, capsys):
    vm = {"n": 3, "d": 1, "values": {"0": "0", "1": "0"}}
    assert main(["check", "plucker", write(tmp_path, vm, "zero.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: error: ") and "'0'" in err[0]


def test_non_ascii_digit_keys_exit_2(tmp_path, capsys):
    # str.isdigit holds for superscript and fullwidth digits, which int
    # rejects or reads as ASCII ones: keys take ASCII digits only
    for k, key in enumerate(["\u00b2", "\uff11", "1\uff12"]):
        vm = {"n": 2, "d": len(key), "values": {key: "0", "12"[:len(key)]: "0"}}
        assert main(["check", "plucker", write(tmp_path, vm, f"subset{k}.json")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("valperm: error: ") and "ASCII" in err[0]
    for k, key in enumerate(["\uff11\uff12\uff13", "12\u00b3"]):
        heights = dict(SPIKED["heights"])
        heights[key] = heights.pop("123")
        obj = {"n": 3, "heights": heights}
        assert main(["subdivide", write(tmp_path, obj, f"vertex{k}.json")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("valperm: error: ") and "not a permutation" in err[0]


def test_parse_frac_takes_ascii_digits_only():
    # Fraction reads Arabic-Indic digits as ASCII ones and "_" as a digit
    # separator; signs, p/q and decimals read as before
    for text in ["\u0661/\u0662", "\u0663", "1_000", "\uff11"]:
        with pytest.raises(InputError, match="non-ASCII characters and '_' are not accepted"):
            parse_frac(text, "values[1]")
    assert [parse_frac(t) for t in ["-3/4", "+0.5", " 7 ", "2/6"]] == [
        Fraction(-3, 4), Fraction(1, 2), Fraction(7), Fraction(1, 3)]


def test_non_ascii_digit_values_exit_2(tmp_path, capsys):
    for k, value in enumerate(["\u0661", "1_000"]):
        vm = {"n": 3, "d": 1, "values": {"1": value, "2": "0", "3": "0"}}
        assert main(["check", "plucker", write(tmp_path, vm, f"value{k}.json")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("valperm: error: ") and "'_'" in err[0]


def test_numbers_too_large_to_read_exit_2(tmp_path, capsys):
    # Fraction reads "1e999999999" as the integer 10^999999999, which takes
    # minutes to build, so exponent notation is refused as input; the small
    # exponents come first so that a reader that accepts them fails fast
    for k, value in enumerate(["2E-3", "1.5e2", "1e999999999"]):
        vm = {"n": 3, "d": 1, "values": {"1": value, "2": "0", "3": "0"}}
        assert main(["check", "plucker", write(tmp_path, vm, f"exp{k}.json")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("valperm: error: ") and "exponent" in err[0]
    # a JSON integer literal longer than Python converts from a string
    long_int = tmp_path / "long.json"
    long_int.write_text('{"n": 3, "d": 1, "values": {"1": ' + "1" * 5000 + ', "2": "0", "3": "0"}}')
    assert main(["check", "plucker", str(long_int)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: error: ")


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    assert main(["check", "plucker", str(deep)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: error: ")


def test_subdivide_exit_codes(tmp_path):
    code, out = run(tmp_path, "subdivide", write(tmp_path, SPIKED, "spiked.json"))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert any(not c["generalized_permutahedron"] for c in report["cells"])

    code, out = run(tmp_path, "subdivide", write(tmp_path, TWO_PITS, "pits.json"),
                    name="pits_out.json")
    assert code == 0
    report = json.loads(out)
    assert len(report["cells"]) == 2
    assert all(c["generalized_permutahedron"] for c in report["cells"])
    assert all(not c["bruhat_interval"] for c in report["cells"])


def test_skeleton_fail(tmp_path):
    code, out = run(tmp_path, "skeleton", write(tmp_path, SPIKED, "spiked.json"))
    assert code == 1
    report = json.loads(out)
    assert report["conditions"]["alternating_equal"] is False
    assert report["conditions"]["two_skeleton"] is False


def test_decompose(tmp_path):
    code, out = run(tmp_path, "decompose", str(GOLDEN / "compress_a.json"))
    assert code == 0
    report = json.loads(out)
    assert report["flag"] == [
        {"n": 3, "d": 1, "values": {"1": "-1", "2": "-2", "3": "0"}},
        {"n": 3, "d": 2, "values": {"12": "0", "13": "1", "23": "0"}},
        {"n": 3, "d": 3, "values": {"123": "4"}},
    ]
    code, out = run(tmp_path, "decompose", write(tmp_path, SPIKED, "spiked.json"),
                    name="fail.json")
    assert code == 1
    assert "hexagon" in json.loads(out)["reason"]


def test_decompose_output_feeds_compress(tmp_path):
    code, _ = run(tmp_path, "decompose", str(GOLDEN / "compress_a.json"), name="d.json")
    assert code == 0
    code, out = run(tmp_path, "compress", str(tmp_path / "d.json"), name="h.json")
    assert code == 0
    assert json.loads(out)["heights"] == json.loads(
        (GOLDEN / "compress_a.json").read_bytes()
    )["heights"]


def test_lift(tmp_path):
    code, out = run(tmp_path, "lift", str(GOLDEN / "flag_a.json"))
    assert code == 0
    report = json.loads(out)
    assert report["positive"] is True
    lifted = report["valuation"]
    assert (lifted["n"], lifted["d"]) == (6, 3)
    assert len(lifted["values"]) == 20
    assert lifted["values"]["123"] == "10"
    assert lifted["values"]["456"] == "0"


def test_lift_rejects_flags_above_four(tmp_path, capsys):
    # the lift lives on 2n elements, whose subset keys are digit strings
    def zero_flag(n):
        return [{"n": n, "d": d, "values": {"".join(map(str, c)): "0"
                                            for c in combinations(range(1, n + 1), d)}}
                for d in range(1, n + 1)]

    capsys.readouterr()
    assert main(["lift", write(tmp_path, zero_flag(5), "five.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("valperm: error:") and "2 * n <= 9" in err
    code, out = run(tmp_path, "lift", write(tmp_path, zero_flag(4), "four.json"))
    lifted = json.loads(out)["valuation"]
    assert code == 0 and lifted["n"] == 8
    assert main(["check", "plucker", write(tmp_path, lifted, "lifted.json")]) == 0


def test_tropicalize_rows_and_errors(tmp_path):
    code, out = run(tmp_path, "tropicalize", str(GOLDEN / "matrix_a.json"), "--rows", "2")
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == 2 and len(report["flag"]) == 2

    zero = {"entries": [[[], []], [[], []]]}
    code, out = run(tmp_path, "tropicalize", write(tmp_path, zero, "zero.json"),
                    name="zero_out.json")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"

    ragged = {"entries": [[[[0, "1"]]], [[[0, "1"]], [[0, "1"]]]]}
    assert main(["tropicalize", write(tmp_path, ragged, "ragged.json")]) == 2
    tall = {"entries": [[[[0, "1"]]], [[[0, "1"]]]]}
    assert main(["tropicalize", write(tmp_path, tall, "tall.json")]) == 2
    assert main(["tropicalize", str(GOLDEN / "matrix_a.json"), "--rows", "7"]) == 2


def test_tropicalize_rejects_more_than_nine_columns(tmp_path, capsys):
    # subset keys are digit strings: {10} would be written as "10"
    def matrix(cols):
        return {"entries": [[[[0, str(1 + i + j * cols)]] for i in range(cols)] for j in range(2)]}

    capsys.readouterr()
    assert main(["tropicalize", write(tmp_path, matrix(10), "wide.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "need at most 9 columns" in err
    code, out = run(tmp_path, "tropicalize", write(tmp_path, matrix(9), "nine.json"))
    assert code == 0 and json.loads(out)["columns"] == 9
    assert main(["check", "plucker", str(tmp_path / "out.json")]) == 0


def test_fan_cli(tmp_path):
    code, out = run(tmp_path, "fan", "3", "--census")
    assert code == 0
    report = json.loads(out)
    assert report["census"]["f_vector"] == [3]
    assert report["census"]["ray_counts"] == {"1": 3}
    assert report["lineality_dim"] == 2
    assert sorted(report["rays"]) == [
        [-2, 1, 1, 1, 1, -2], [1, -2, 1, 1, -2, 1], [1, 1, -2, -2, 1, 1]
    ]
    assert report["link_dot"].startswith("graph link_3 {")
    assert main(["fan", "5"]) == 2
    code, out = run(tmp_path, "fan", "3", "--homology", name="homology.json")
    assert code == 0
    assert json.loads(out)["homology"] == {"betti": [3], "euler": 3}


def test_subdivide_rejects_n_above_its_bound(tmp_path, capsys):
    six = {"n": 6, "heights": {"".join(map(str, v)): "0" for v in permutations(range(1, 7))}}
    capsys.readouterr()
    assert main(["subdivide", write(tmp_path, six, "six.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "subdivide supports n up to 5, got 6" in err
    five = {"n": 5, "heights": {"".join(map(str, v)): "0" for v in permutations(range(1, 6))}}
    code, out = run(tmp_path, "subdivide", write(tmp_path, five, "five.json"))
    assert code == 0 and len(json.loads(out)["cells"]) == 1


# sha256 of the full n = 4 report as the flat 3^8 sign-choice sweep wrote it
FAN4_REPORT_SHA256 = "e27b6972a0ae9183b6cfd88b0915d998fd7af86cb66d63ee30521874ce6e536b"
FAN3_REPORT_SHA256 = "3c7bb9fde1f13c7d4ed7b4d48a1bb697217c87a6d8b766680c742d3236ab3fe7"


def test_fan4_full_report_frozen(tmp_path):
    code, out = run(tmp_path, "fan", "4", "--census", "--homology", "--refinement", "--patterns")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == FAN4_REPORT_SHA256


def test_fan3_full_report_frozen(tmp_path):
    code, out = run(tmp_path, "fan", "3", "--census", "--refinement", "--patterns")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == FAN3_REPORT_SHA256


def test_stdout_default(capsys):
    code = main(["check", "plucker", str(GOLDEN / "flag_a.json")])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "pass"


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert main(["fan", "3", "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: error: ")


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   BrokenPipeError(errno.EPIPE, "Broken pipe")],
                         ids=["full", "broken-pipe"])
def test_failed_write_to_stdout_exits_2(monkeypatch, capsys, error):
    class FailingStdout:
        def write(self, text):
            raise error

        def flush(self):
            raise error

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    assert main(["check", "plucker", str(GOLDEN / "flag_a.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: error: ")


def test_failed_flush_of_stdout_exits_2(monkeypatch, capsys):
    # a write that buffers and a flush that fails, as on a full device
    class FullDevice:
        def write(self, text):
            return len(text)

        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDevice())
    assert main(["check", "plucker", str(GOLDEN / "flag_a.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["valperm: error: [Errno 28] No space left on device"]


def test_internal_error_exits_3(monkeypatch, capsys):
    def wrong_combine_ray(pos_ray, neg_ray, wpos, wneg):
        return [wneg * y - wpos * x for x, y in zip(pos_ray, neg_ray)]

    monkeypatch.setattr(kernels, "combine_ray", wrong_combine_ray)
    assert main(["subdivide", str(GOLDEN / "compress_a.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: internal error: ")


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    # an exception other than an input error or a failed certificate is a
    # bug as well: one stderr line and exit 3, not a traceback and exit 1
    def broken(fan):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "f_vector_census", broken)
    assert main(["fan", "3", "--census"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["valperm: internal error: KeyError: 'lost'"]


def test_timing_opt_in(tmp_path):
    code, out = run(tmp_path, "check", "plucker", str(GOLDEN / "flag_a.json"),
                    "--timing")
    assert code == 0
    report = json.loads(out)
    assert "seconds" in report["timing"]
    code, out = run(tmp_path, "check", "plucker", str(GOLDEN / "flag_a.json"),
                    name="notiming.json")
    assert "timing" not in json.loads(out)


def test_format_flag(tmp_path):
    code, _ = run(tmp_path, "check", "plucker", str(GOLDEN / "flag_a.json"),
                  "--format", "json")
    assert code == 0
