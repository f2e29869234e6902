"""The work counters of scripts/count_work.py on small functions."""

import gc
import importlib.util
import json
import pathlib
import sys
import tracemalloc
import types
from fractions import Fraction

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "count_work.py"
spec = importlib.util.spec_from_file_location("count_work", SCRIPT)
count_work = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_work)


def _loop(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_opcode_count_is_exact_and_grows_with_the_work():
    tracer = sys.gettrace()
    result, ten = count_work.count_opcodes(lambda: _loop(10))
    assert result == 45
    assert count_work.count_opcodes(lambda: _loop(10))[1] == ten
    assert count_work.count_opcodes(lambda: _loop(20))[1] > ten > 0
    assert sys.gettrace() is tracer


def test_fraction_count_is_the_objects_built_and_the_class_is_restored():
    new = Fraction.__dict__["__new__"]
    # constructor calls only: from Python 3.12 on, arithmetic builds its
    # results without Fraction.__new__, so a sum would count on 3.11 alone
    result, built = count_work.count_fractions(
        lambda: [Fraction(1, k) for k in range(1, 6)])
    assert result[1] == Fraction(1, 2)
    assert built == 5
    assert count_work.count_fractions(lambda: 7 * 6)[1] == 0
    assert Fraction.__dict__["__new__"] is new
    assert Fraction(3, 6) == Fraction(1, 2)


def test_heap_count_is_the_peak_above_the_start_and_tracing_is_restored():
    assert not tracemalloc.is_tracing()
    result, held = count_work.count_heap(lambda: len(bytearray(1_000_000)))
    assert result == 1_000_000
    assert 1_000_000 <= held < 1_010_000
    assert count_work.count_heap(lambda: len(bytearray(1_000_000)))[1] == held
    assert not tracemalloc.is_tracing()
    # inside a caller's tracing the count starts from what is already traced
    tracemalloc.start()
    try:
        kept = bytearray(2_000_000)
        inside = count_work.count_heap(lambda: len(bytearray(1_000_000)))[1]
        assert 1_000_000 <= inside < 1_010_000
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    del kept


def test_heap_count_leaves_out_garbage_made_before_the_call():
    # cyclic garbage left before the call is collected first: a collection
    # inside the call would otherwise free it there, and the call's own
    # allocations would hide in the room it left
    def collects_then_allocates():
        gc.collect()
        return len(bytearray(1_000_000))

    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        cycle = [bytearray(2_000_000)]
        cycle.append(cycle)
        del cycle
        held = count_work.count_heap(collects_then_allocates)[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert 1_000_000 <= held < 1_010_000


def test_compile_peak_is_the_largest_file_and_repeats(tmp_path):
    small, large = tmp_path / "small.py", tmp_path / "large.py"
    small.write_text("x = 1\n")
    large.write_text("".join(f"def f{i}(a, b):\n    return [a * k + b for k in range({i})]\n"
                             for i in range(200)))
    one = count_work.compile_peak([str(small)])
    both = count_work.compile_peak([str(large), str(small)])
    assert 0 < one < both
    assert both == count_work.compile_peak([str(large)])
    assert count_work.compile_peak([str(large), str(small)]) == both
    assert count_work.compile_peak([]) == 0


class _OneOp:
    """A workload of one op whose output is always "out"."""

    def setup(self):
        pass

    def new_pass(self):
        return [("op", lambda: "out")]

    @staticmethod
    def digest(result):
        return result

    def cleanup(self):
        pass


@pytest.mark.parametrize("recorded,code", [("out", 0), ("other", 1)])
def test_a_digest_mismatch_is_exit_1(monkeypatch, tmp_path, capsys, recorded, code):
    (tmp_path / "golden.json").write_text(json.dumps({"one-op": {"op": recorded}}))
    monkeypatch.setattr(count_work, "PERFBENCH", str(tmp_path))
    monkeypatch.setitem(sys.modules, "workloads",
                        types.SimpleNamespace(WORKLOADS={"one-op": _OneOp}))
    monkeypatch.setattr(sys, "argv", ["count_work.py", "--workload", "one-op"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)  # main changes directory; this restores it
    assert count_work.main() == code
    assert json.loads(capsys.readouterr().out)["digest_mismatches"] == 4 * code


@pytest.mark.parametrize("mismatches,code", [((0, 0), 0), ((2, 0), 1), ((0, 1), 1)])
def test_parent_counts_both_trees_in_one_line(monkeypatch, capsys, mismatches, code):
    exported, counted = [], []

    def export(rev, dest):
        exported.append(rev)

    def count_tree(tree, workload):
        side = "change" if tree == count_work.ROOT else "parent"
        if side == "parent":
            # the exported tree is counted with this copy of the script
            assert pathlib.Path(tree, "scripts", "count_work.py").read_bytes() == \
                SCRIPT.read_bytes()
        counted.append((side, workload))
        return {"opcodes_per_pass": {"parent": 10, "change": 9}[side],
                "fractions_per_pass": 1,
                "digest_mismatches": mismatches[side == "change"]}

    monkeypatch.setattr(count_work, "_export", export)
    monkeypatch.setattr(count_work, "count_tree", count_tree)
    monkeypatch.setattr(sys, "argv", ["count_work.py", "--workload", "one-op",
                                      "--parent", "abc123"])
    assert count_work.main() == code
    assert exported == ["abc123"]
    assert counted == [("parent", "one-op"), ("change", "one-op")]
    line = json.loads(capsys.readouterr().out)
    assert line == {
        "workload": "one-op",
        "parent": {"rev": "abc123", "opcodes_per_pass": 10, "fractions_per_pass": 1,
                   "digest_mismatches": mismatches[0]},
        "change": {"opcodes_per_pass": 9, "fractions_per_pass": 1,
                   "digest_mismatches": mismatches[1]},
    }


def test_config_counts_a_warm_run_against_its_recording(monkeypatch, capsys):
    config = SCRIPT.parent.parent / "configs" / "not_fixed.json"
    monkeypatch.setattr(sys, "argv", ["count_work.py", "--config", str(config)])
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert count_work.main() == 0
    line = json.loads(capsys.readouterr().out)
    assert line["golden_mismatches"] == 0
    assert line["opcodes_per_run"] > 0 and line["fractions_per_run"] > 0
    assert line["heap_peak_bytes_per_run"] > 0 and line["compile_peak_bytes"] > 0
    assert line["config"].endswith("not_fixed.json")


@pytest.mark.parametrize("code,stdout,mismatches", [
    (0, "out", 0), (0, "other", 4), (2, "out", 4)])
def test_a_config_run_apart_from_its_recording_is_exit_1(monkeypatch, tmp_path, capsys,
                                                         code, stdout, mismatches):
    golden = tmp_path / "tests" / "golden"
    golden.mkdir(parents=True)
    (golden / "cfg.run.json").write_text("out")
    (golden / "cli_exit_codes.json").write_text(json.dumps({"cfg.run.json": 0}))
    ran = []

    def fake_main(argv):
        ran.append(argv)
        print(stdout, end="")
        return code

    monkeypatch.setattr(count_work, "ROOT", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr("voatwist.cli.main", fake_main)
    monkeypatch.setattr(sys, "argv", ["count_work.py", "--config", "cfg.json"])
    assert count_work.main() == (1 if mismatches else 0)
    assert json.loads(capsys.readouterr().out)["golden_mismatches"] == mismatches
    # a warm-up run, then the opcode, the Fraction and the heap counts
    assert ran == [["run", str(pathlib.Path("cfg.json").resolve()), "--format", "json"]] * 4
    monkeypatch.setattr(sys, "argv", ["count_work.py", "--config", "unrecorded.json"])
    with pytest.raises(SystemExit, match="no recording"):
        count_work.main()


def test_parent_counts_a_config_inside_each_tree(monkeypatch, capsys):
    counted = []

    def count_tree(tree, target, kind="workload"):
        counted.append((tree == count_work.ROOT, target, kind))
        return {"opcodes_per_run": 5, "fractions_per_run": 1, "golden_mismatches": 0}

    monkeypatch.setattr(count_work, "_export", lambda rev, dest: None)
    monkeypatch.setattr(count_work, "count_tree", count_tree)
    config = pathlib.Path(count_work.ROOT, "configs", "not_fixed.json")
    monkeypatch.setattr(sys, "argv", ["count_work.py", "--config", str(config),
                                      "--parent", "abc123"])
    assert count_work.main() == 0
    (parent, parent_target, kind), change = counted
    assert not parent and kind == "config"
    assert parent_target.endswith("configs/not_fixed.json") and parent_target != str(config)
    assert change == (True, str(config), "config")
    line = json.loads(capsys.readouterr().out)
    assert line["parent"]["rev"] == "abc123" and "change" in line
