"""CLI surface: golden files, exit codes, byte determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from valperm import kernels
from valperm.cli import main

GOLDEN = Path(__file__).parent / "golden"

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


def test_check_input_errors(tmp_path):
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


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["skeleton", str(bad)]) == 2
    assert main(["check", "plucker", write(tmp_path, {"n": 3, "d": 2}, "novals.json")]) == 2
    vm = {"n": 3, "d": 2, "values": {"21": "0"}}
    assert main(["check", "plucker", write(tmp_path, vm, "badkey.json")]) == 2
    vm = {"n": 3, "d": 2, "values": {"12": "1/0"}}
    assert main(["check", "plucker", write(tmp_path, vm, "badfrac.json")]) == 2


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
    assert main(["fan", "3", "--homology"]) == 2


# sha256 of the full n = 4 report as the flat 3^8 sign-choice sweep wrote it
FAN4_REPORT_SHA256 = "e27b6972a0ae9183b6cfd88b0915d998fd7af86cb66d63ee30521874ce6e536b"


def test_fan4_full_report_frozen(tmp_path):
    code, out = run(tmp_path, "fan", "4", "--census", "--homology", "--refinement", "--patterns")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == FAN4_REPORT_SHA256


def test_stdout_default(capsys):
    code = main(["check", "plucker", str(GOLDEN / "flag_a.json")])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "pass"


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert main(["fan", "3", "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: error: ")


def test_internal_error_exits_3(monkeypatch, capsys):
    def wrong_combine_ray(pos_ray, neg_ray, wpos, wneg):
        return [wneg * y - wpos * x for x, y in zip(pos_ray, neg_ray)]

    monkeypatch.setattr(kernels, "combine_ray", wrong_combine_ray)
    assert main(["subdivide", str(GOLDEN / "compress_a.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: internal error: ")


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
