"""Command-line interface: CSV output, JSON records, exit codes, selftest, bench."""

import json

import pytest

from s2alloc.cli import main
from s2alloc.model import ModelParams, s2_chain_rates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze -------------------------------------------------------------------


def test_analyze_golden_first_rows(capsys):
    code, out, _ = run(capsys, "analyze", "--strategy", "s1",
                       "--b", "32", "--c", "2", "--rounds", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "round,p_e,p_attack,p_detect"
    assert lines[1] == "1,0.998046875,0.003902435303,0.003100682684"
    assert lines[2] == "2,0.993002938,0.005841894166,0.006185695114"
    assert lines[3] == "3,0.9879844922,0.007771551377,0.009255116485"


def test_analyze_zero_rounds_header_only(capsys):
    code, out, _ = run(capsys, "analyze", "--strategy", "s1",
                       "--b", "32", "--rounds", "0")
    assert code == 0
    assert out == "round,p_e,p_attack,p_detect\n"


def test_analyze_sweep_sections(capsys):
    code, out, _ = run(capsys, "analyze", "--strategy", "s1",
                       "--b-range", "16:48:16", "--rounds", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "round,p_e,p_attack,p_detect"
    assert [l for l in lines if l.startswith("#")] == ["# b=16", "# b=32", "# b=48"]
    assert lines[2].startswith("1,0.99609375,")


def test_analyze_row_count_matches_rounds(capsys):
    code, out, _ = run(capsys, "analyze", "--strategy", "s2-spray",
                       "--b", "64", "--spray-m", "4", "--rounds", "25")
    assert code == 0
    data = [l for l in out.splitlines() if l and not l.startswith(("round,", "#"))]
    assert len(data) == 25
    assert data[0].startswith("1,") and data[-1].startswith("25,")


def test_analyze_warnings_go_to_stderr_not_stdout(capsys):
    # entropy 2 with window 2 -> window covers more slots than exist
    code, out, err = run(capsys, "analyze", "--strategy", "s1",
                         "--b", "16", "--entropy-bits", "1", "--d", "2",
                         "--rounds", "2")
    assert code == 0
    assert "warning" in err.lower()
    assert all(set(l) <= set("0123456789,.e-#b= ") for l in out.splitlines()[1:])


def test_analyze_accepts_non_class_slot_sizes(capsys):
    # The abstract game has no size-class table; any b >= s is a valid layout.
    code, out, _ = run(capsys, "analyze", "--strategy", "s1",
                       "--b", "33", "--rounds", "2")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_analyze_rejects_slot_smaller_than_object(capsys):
    code, out, err = run(capsys, "analyze", "--strategy", "s1",
                         "--b", "8", "--rounds", "5")
    assert code == 2
    assert out == ""
    assert err.strip() != ""


def test_analyze_rejects_bad_range_before_any_output(capsys):
    code, out, err = run(capsys, "analyze", "--strategy", "s1",
                         "--b-range", "48:16:16", "--rounds", "5")
    assert code == 2
    assert out == ""


def test_analyze_rejects_impossible_geometry(capsys):
    # window wider than half the slots makes the fresh-reference series undefined
    code, out, err = run(capsys, "analyze", "--strategy", "s2",
                         "--b", "32", "--entropy-bits", "2", "--d", "2",
                         "--rounds", "5")
    assert code == 2
    assert out == ""


# -- simulate ------------------------------------------------------------------


def test_simulate_output_shape_and_determinism(capsys):
    args = ("simulate", "--strategy", "s2", "--b", "32", "--c", "8",
            "--rounds", "10", "--trials", "2000", "--seed", "3")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == "b=32 strategy=s2 trials=2000 rounds=10 seed=3"
    assert "attack:  0.019000" in out
    assert "series" in out and "delta" in out and "neither" in out
    chain = s2_chain_rates(ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, rounds=10))
    assert f"series {chain.final_attack:.6f}" in out
    assert f"series {chain.final_detect:.6f}" in out
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out  # byte-identical rerun


def test_simulate_sweep_runs_each_class(capsys):
    code, out, _ = run(capsys, "simulate", "--strategy", "s1",
                       "--b-range", "16:32:16", "--rounds", "5",
                       "--trials", "500", "--seed", "1")
    assert code == 0
    assert "b=16 " in out and "b=32 " in out


def test_simulate_against_allocator(capsys):
    code, out, _ = run(capsys, "simulate", "--strategy", "s1", "--b", "16",
                       "--rounds", "3", "--trials", "200", "--seed", "5",
                       "--against-allocator")
    assert code == 0
    assert "(live allocator)" in out
    assert "attack:" in out and "detect:" in out
    assert "series" not in out  # empirical only; no abstract-series columns


def test_simulate_json_records(capsys):
    code, out, _ = run(capsys, "simulate", "--strategy", "s2", "--b-range", "32:48:16",
                       "--c", "8", "--rounds", "10", "--trials", "2000", "--seed", "3",
                       "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["params"]["b"] for r in records] == [32, 48]
    first = records[0]
    assert first["strategy"] == "s2" and first["trials"] == 2000 and first["seed"] == 3
    assert first["params"]["rounds"] == 10 and first["params"]["r"] == 256
    assert first["attack_rate"] == 0.019  # the text output's figure
    total = first["attack_rate"] + first["detect_rate"] + first["neither_rate"]
    assert abs(total - 1.0) < 1e-12
    assert first["attack_ci95"] > 0 and first["detect_ci95"] > 0
    for record in records:
        chain = s2_chain_rates(ModelParams(**record["params"]))
        assert record["series"] == "s2_chain_rates"
        assert record["series_final_attack"] == chain.final_attack
        assert record["series_final_detect"] == chain.final_detect
    assert first["elapsed_s"] > 0 and first["peak_rss_mb"] > 1

    code, out, _ = run(capsys, "simulate", "--strategy", "s1", "--b", "16",
                       "--rounds", "3", "--trials", "0", "--seed", "1", "--json")
    assert code == 0
    empty = json.loads(out)
    assert empty["attack_rate"] is None and empty["detect_rate"] is None
    assert empty["series"] == "s1_rates"


def test_simulate_json_against_allocator(capsys):
    code, out, _ = run(capsys, "simulate", "--strategy", "s1", "--b", "16",
                       "--rounds", "3", "--trials", "200", "--seed", "5",
                       "--against-allocator", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["against_allocator"] is True
    assert record["series"] is None and record["series_final_attack"] is None
    assert 0 <= record["detect_rate"] <= 1


def test_simulate_rejects_bad_trials(capsys):
    code, out, _ = run(capsys, "simulate", "--strategy", "s1", "--b", "16",
                       "--trials", "-5", "--rounds", "2", "--seed", "1")
    assert code == 2
    assert out == ""


# -- selftest ------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "PASSED"
    assert sum(1 for l in lines if l.startswith("ok - ")) == 6
    assert not any(l.startswith("FAIL") for l in lines[:-1])


def test_selftest_sabotage_fails_deterministically(capsys):
    code, out, _ = run(capsys, "selftest", "--sabotage")
    assert code == 1
    assert out.splitlines()[-1].startswith("FAILED")
    assert any(l.startswith("FAIL - heap consistency sweep") for l in out.splitlines())


# -- bench ---------------------------------------------------------------------


def test_bench_tiny_run(capsys):
    code, out, _ = run(capsys, "bench", "--size", "64",
                       "--total-bytes", str(4 << 20), "--threads", "2",
                       "--reps", "1")
    assert code == 0
    assert "size=64" in out and "threads=2" in out
    assert "malloc" in out and "free" in out and "ns/op" in out


def test_bench_json_records(capsys):
    code, out, _ = run(capsys, "bench", "--size", "64", "--total-bytes", str(1 << 20),
                       "--threads", "2", "--reps", "2", "--seed", "7", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["rep"] for r in records] == [0, 1]
    for record in records:
        assert set(record) == {"rep", "seed", "size", "ops", "threads", "malloc_ns",
                               "free_ns", "elapsed_s", "peak_rss_mb"}
        assert record["seed"] == 7 and record["size"] == 64 and record["threads"] == 2
        assert record["ops"] == (1 << 20) // 64
        assert record["malloc_ns"] > 0 and record["free_ns"] > 0
        assert record["elapsed_s"] > 0 and record["peak_rss_mb"] > 1

    code, out, _ = run(capsys, "bench", "--size", "64", "--total-bytes", str(1 << 20),
                       "--reps", "1", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[0] == "rep=0 size=64 ops=16384 threads=1"
    assert lines[1].startswith("  malloc: ") and lines[1].endswith(" ns/op")
    assert lines[2].startswith("  free:   ") and lines[2].endswith(" ns/op")


def test_bench_rejects_empty_workload(capsys):
    code, out, _ = run(capsys, "bench", "--size", "64", "--total-bytes", "0")
    assert code == 2


# -- top-level dispatch ----------------------------------------------------------


def test_unknown_command_errors():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--b", "32"])
    assert exc.value.code == 2
