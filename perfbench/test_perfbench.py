"""Self-tests of the benchmark: span arithmetic, output checks, names.

    python3 -m pytest perfbench -q

Run from the checkout root; the package is imported from `src/`.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ingletonlp import bound, certify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_nested_children():
    # a[0,10] holds b[1,4] and d[5,9]; b holds c[2,3]
    fake = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
            ("c", 2.0, 3.0, 1, None), ("d", 5.0, 9.0, 0, None)]
    assert spans.self_times(fake) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    fake = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
            ("c", 3.0, 6.0, 0, None), ("d", 8.0, 12.0, 0, None)]
    assert spans.self_times(fake)[0] == 10.0 - 5.0 - 2.0


def test_wrappers_nest_and_fold_into_layer_metrics():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def gen_delta0(n):
        return [0] * 3

    def gen_delta(n):
        return inner0(n) + [1]

    inner0 = tracer.wrap("ingen.gen", gen_delta0)
    outer = tracer.wrap("ingen.gen", gen_delta)
    main = tracer.wrap("cli.main", lambda: outer(5) + outer(5))
    assert main() == [0, 0, 0, 1] * 2
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["cli.main", "ingen.gen", "ingen.gen", "ingen.gen", "ingen.gen"]
    assert parents == [-1, 0, 1, 0, 3]
    m = spans.layer_metrics(tracer.spans)
    assert m["ingen.gen_calls"] == 2  # the nested gen_delta0 calls are inside
    assert m["ingen.members"] == 8
    assert m["ingen.regen_ratio"] == 2.0
    assert m["cli.main_s"] == tracer.spans[0][2] - tracer.spans[0][1]
    assert set(m) | {"trace.overhead_s"} == set(spans.LAYER_METRICS)


def _traced_child(tmp_path, argv):
    result = tmp_path / "child.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(result), "1",
                           "--", *argv], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())["layers"]


def test_traced_child_sees_calls_through_every_binding(tmp_path):
    m = _traced_child(tmp_path, ["check-minimality", "--n", "4"])
    assert m["simplex.calls"] == 0
    assert m["certify.verify_calls"] == 34
    assert m["certify.presolve_calls"] > 0
    assert m["entspace.evaluate_calls"] > 0
    # cli._FAMILIES holds its own reference to gen_delta
    g = _traced_child(tmp_path, ["gen", "--n", "4", "--out", "d.txt"])
    assert g["ingen.gen_calls"] == 1 and g["ingen.members"] == 34
    assert g["ingen.write_busy_s"] > 0


@pytest.fixture(scope="module")
def butterfly_report():
    problem = bound.compile_network(bound.parse_network(workloads.BUTTERFLY5),
                                    cone=bound.CONE_GAMMA_IN)
    return bound.format_bound_report(problem, bound.solve_bound(problem))


@pytest.fixture(scope="module")
def minimality_report():
    return certify.check_minimality(workloads.SCAN_N).to_text()


def _verdict(tmp_path, name, stdout: str):
    rec = {"dir": tmp_path, "exit": 0, "setup_s": 0.5, "golden": "unknown",
           "stdout": stdout.encode("ascii")}
    return run.verdict(workloads.WORKLOADS[name], rec, 0)


def test_bound_check_accepts_report_and_counts_tampered_dual(tmp_path, butterfly_report):
    assert _verdict(tmp_path, "bound-butterfly5", butterfly_report) is None
    lines = butterfly_report.splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("dual gen "))
    head, _, cf = lines[at].rstrip("\n").rpartition(" ")
    changed = lines[:at] + [f"{head} {cf}1\n"] + lines[at + 1:]
    assert "verify_bound_result" in _verdict(tmp_path, "bound-butterfly5", "".join(changed))
    garbled = lines[:at] + [f"{head} x/0\n"] + lines[at + 1:]
    assert _verdict(tmp_path, "bound-butterfly5", "".join(garbled)) is not None


def test_minimality_check_counts_tampered_witness(tmp_path, minimality_report):
    assert _verdict(tmp_path, "scan-minimality", minimality_report) is None
    lines = minimality_report.splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("witness\t"))
    # {1}=a -> {1}=a+7 keeps the line parseable but breaks the witness
    tag, kind, payload, pairs = lines[at].rstrip("\n").split("\t")
    first, _, rest = pairs.partition(" ")
    mask, _, value = first.partition("=")
    tampered = f"{tag}\t{kind}\t{payload}\t{mask}={value}+7 {rest}\n"
    assert _verdict(tmp_path, "scan-minimality",
                    "".join(lines[:at] + [tampered] + lines[at + 1:])) is not None
    bumped = f"{tag}\t{kind}\t{payload}\t{mask}=1000 {rest}\n"
    reason = _verdict(tmp_path, "scan-minimality",
                      "".join(lines[:at] + [bumped] + lines[at + 1:]))
    assert reason is not None and "fails verification" in reason


def test_failed_exit_is_counted_not_checked(tmp_path):
    (tmp_path / "stderr").write_text("Traceback\n")
    rec = {"dir": tmp_path, "exit": 1, "stdout": b"", "golden": "unknown"}
    assert run.verdict(workloads.WORKLOADS["gen-n8"], rec, 0).startswith("exit 1")


def test_names_and_benchmark_json_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_METRICS
