"""Self-tests of the benchmark's span arithmetic and artifact checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from spans import ID, NAME, PARENT, Recorder, self_times, union_length  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    # two children on different threads overlap on [3, 5]
    spans = [
        [0, "scan.grid_scan", None, 0.0, 10.0, 1, None],
        [1, "expsum.exp_sum_on_grid", 0, 1.0, 5.0, 2, None],
        [2, "expsum.exp_sum_on_grid", 0, 3.0, 7.0, 3, None],
    ]
    selfs, overlap = self_times(spans)
    assert selfs[0] == 4.0  # 10 - |[1, 7]|, not 10 - (4 + 4)
    assert selfs[1] == selfs[2] == 4.0
    assert overlap == 2.0
    assert sum(selfs.values()) - overlap == 10.0  # accounts for the root span
    assert union_length([(0.0, 1.0), (2.0, 3.0), (2.5, 4.0)]) == 3.0


def test_worker_spans_attach_to_the_span_open_on_the_main_thread():
    rec = Recorder()
    work = rec.wrap("expsum.exp_sum_on_grid", lambda: None)
    top = rec.open("scan.grid_scan")
    workers = [threading.Thread(target=work) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    rec.close(top)
    kids = [s for s in rec.spans if s[NAME] == "expsum.exp_sum_on_grid"]
    assert len(kids) == 2 and all(s[PARENT] == top[ID] for s in kids)


def test_checker_fails_when_one_record_magnitude_moves_by_1e_6(tmp_path):
    from olx.cli import run

    out = tmp_path / "scan.json"
    argv = ["scan", "--model", "zeta", "--t-min", "171", "--t-max", "172",
            "--step", "0.01", "--Y", "1e4", "--top-k", "3", "--out", str(out)]
    assert run(argv) == 0
    artifact = out.read_bytes()
    problems, values = checks.check_artifact(artifact)
    assert problems == []
    assert values["scan_max_abs"] > 0

    doc = json.loads(artifact)
    doc["data"]["records"][1]["magnitude"] += 1e-6
    problems, _ = checks.check_artifact(json.dumps(doc).encode())
    assert len(problems) == 1 and "standalone product" in problems[0]
