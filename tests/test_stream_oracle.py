"""The streamed corpus against the dict-building oracle of `corpus_oracle.py`:
the same bytes, failing reports, summary and decoded dict, for a fraction
of the oracle's memory."""

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from superchar.groups import catalog_group, normal_subgroups
from superchar.verifier import (
    CHUNK_ROWS,
    DEFAULT_CATALOG,
    VACUOUS,
    _encode_rows,
    corpus_json_bytes,
    failing_reports,
    run_corpus,
    verify_groups,
)

import corpus_oracle

# the extremes-only groups of the benchmark's large-groups workload
LARGE = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32")


def assert_matches_oracle(specs, **options):
    """The streamed bytes are the oracle's `corpus_json_bytes`, and the
    failing reports, the summary of the tallies and the decoded corpus are
    the oracle's; returns the failing reports."""
    reference = corpus_oracle.run_corpus(specs, **options)
    buf = io.BytesIO()
    tallies = list(verify_groups(specs, out=buf, **options))
    assert buf.getvalue() == corpus_json_bytes(reference)
    fails = failing_reports({"groups": tallies})
    assert fails == failing_reports(reference)
    summary = {key: sum(t["counts"][key] for t in tallies) for key in reference["summary"]}
    assert summary == reference["summary"]
    assert [(t["label"], t["order"], t["theory_count"]) for t in tallies] == [
        (e["label"], e["order"], e["theory_count"]) for e in reference["groups"]]
    assert run_corpus(specs, **options) == json.loads(json.dumps(reference))
    return fails


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_each_default_group_streams_the_oracle_bytes(spec):
    assert assert_matches_oracle([spec]) == []


@pytest.mark.parametrize("spec", LARGE)
def test_large_extremes_stream_the_oracle_bytes(spec):
    assert assert_matches_oracle([spec], all_scts=False) == []


def test_a_relabeled_table_streams_the_oracle_bytes(tmp_path):
    # every element but the identity renamed by a seeded permutation
    mul = catalog_group("A4").mul
    n = len(mul)
    rest = list(range(1, n))
    random.Random(81).shuffle(rest)
    perm = [0] + rest
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[perm[a]][perm[b]] = perm[mul[a][b]]
    path = tmp_path / "A4"
    path.write_text(f"order {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in new))
    assert assert_matches_oracle(["C2", f"file:{path}"]) == []


def test_skipped_groups_stream_the_oracle_bytes():
    assert assert_matches_oracle(["C4", "S4", "Q8", "A4"], max_order=10) == []


def test_failing_rows_stream_the_oracle_bytes(monkeypatch):
    import superchar.verifier as verifier

    def broken(S):
        raise KeyError("missing scope")

    def planted(S):
        yield {"n": [0]}, True, lambda: (True, None)
        yield {"n": list(range(S.group.order))}, True, lambda: (False, {"failing": ["planted"], "order": S.group.order})

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", broken)
    monkeypatch.setitem(verifier._CHECKERS, "T-zs", planted)
    fails = assert_matches_oracle(["C2", "S3", "Q8"])
    assert [(f["group"], f["theory"], f["theorem_id"]) for f in fails] == [
        ("C2", 0, "L-vs"), ("C2", 0, "T-zs"),
        ("S3", 0, "L-vs"), ("S3", 0, "T-zs"), ("S3", 1, "L-vs"), ("S3", 1, "T-zs"),
    ] + [("Q8", t, tid) for t in range(9) for tid in ("L-vs", "T-zs")]
    assert fails[1]["witness"] == {"failing": ["planted"], "order": 2}


def _d6_subgroups():
    # D6 (order 12) has normal subgroups with members of two digits, so a
    # member list sorted as strings would be caught
    subs = {N.sorted_members(): N for N in normal_subgroups(catalog_group("D6"))}
    return subs[(0, 2, 4, 6, 8, 10)], subs[(0, 2, 4, 7, 9, 11)], subs[(0, 3)]


def _scope_rows():
    """One row of every scope shape the checkers yield, a planted list
    scope as the tests' checkers yield, and the exception scope."""
    N, H, M = _d6_subgroups()
    return [
        ({}, True, lambda: (True, None)),
        ({}, False, None),
        ({"element": 11}, VACUOUS, lambda: (True, None)),
        ({"m": 3}, False, lambda: (False, {"zeta": [0, 1], "v": [0]})),
        ({"m": 2}, True, lambda: (False, {"zeta": [0, 1], "v": [0]})),
        ({"class": 2}, True, lambda: (True, None)),
        ({"n": N}, True, lambda: (True, {"note": "some nonvanishing sets needed closure to become subgroups"})),
        ({"h": H, "n": N}, VACUOUS, lambda: (True, None)),
        ({"m": M, "n": N}, True, lambda: (True, None)),
        ({"n": N, "h": H}, True, lambda: (False, {"failing": ["deflated U = (0, 3), projected U = [0]"]})),
        ({"n": [0, 10, 2]}, VACUOUS, lambda: (False, {"failing": ["planted"], "order": 12})),
        ({"error": "caf\u00e9 \u2260 \"th\u00e9\u00e9\"\n", "exception": "ValueError"}, True,
         lambda: (False, {"nested": {"z": [1, {"b": None, "a": True}], "a": "\u00fcber"}, "failing": []})),
    ]


@pytest.mark.parametrize("row", _scope_rows(), ids=lambda row: "-".join(row[0]) or "empty")
def test_each_scope_shape_is_written_as_the_oracle_encodes_its_report(row):
    counts, fails = dict.fromkeys(("pass", "fail", "vacuous", "na"), 0), []
    report = corpus_oracle._report("L-uquot", *row)
    assert _encode_rows("L-uquot", [row], counts, fails) == [b"," + corpus_json_bytes(report)]
    assert counts == {key: int(key == report["status"].replace("not-applicable", "na")) for key in counts}
    assert fails == ([report] if report["status"] == "fail" else [])


def test_rows_of_every_shape_are_joined_as_the_oracle_encodes_them():
    rows = _scope_rows() * (CHUNK_ROWS // 5)  # more than two chunks
    reports = [corpus_oracle._report("T-celt", *row) for row in rows]
    counts, fails = dict.fromkeys(("pass", "fail", "vacuous", "na"), 0), []
    chunks = _encode_rows("T-celt", rows, counts, fails)
    assert [len(chunk.split(b',{"scope"')) - 1 for chunk in chunks] == [CHUNK_ROWS, CHUNK_ROWS, len(rows) - 2 * CHUNK_ROWS]
    assert b"".join(chunks)[1:] == corpus_json_bytes(reports)[1:-1]
    assert fails == [r for r in reports if r["status"] == "fail"]


def test_a_failing_subgroup_scope_reaches_the_failing_reports_as_a_sorted_list(monkeypatch):
    import superchar.verifier as verifier

    def planted(S):
        subs = {N.sorted_members(): N for N in normal_subgroups(S.group)}
        yield {"n": subs[(0, 2, 4, 6, 8, 10)], "h": subs[(0, 3)]}, True, lambda: (False, {"failing": ["planted"]})

    monkeypatch.setitem(verifier._CHECKERS, "L-uquot", planted)
    fails = assert_matches_oracle(["D6"])
    assert [report["theory"] for report in fails] == list(range(15))  # one per theory of D6
    for report in fails:
        assert report["scope"] == {"n": [0, 2, 4, 6, 8, 10], "h": [0, 3]}
        assert all(type(value) is list for value in report["scope"].values())
    assert fails == failing_reports(run_corpus(["D6"]))


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_exception_after_a_full_chunk_replaces_the_whole_theorem(monkeypatch, jobs):
    import superchar.verifier as verifier

    def late(S):
        for g in range(CHUNK_ROWS + 5):  # one chunk encoded and held, then a partial one
            yield {"element": g}, True, lambda: (False, {"partial": g})
        raise ValueError("late")

    def exact(S):
        for g in range(CHUNK_ROWS):
            yield {"element": g}, True, lambda: (True, None)

    def empty(S):
        return
        yield

    monkeypatch.setitem(verifier._CHECKERS, "T-zs", late)
    monkeypatch.setitem(verifier._CHECKERS, "L-vs", exact)
    monkeypatch.setitem(verifier._CHECKERS, "C-class", empty)
    specs = ["C2", "S3"]
    reference = corpus_oracle.run_corpus(specs)
    buf = io.BytesIO()
    fails = run_corpus(specs, jobs=jobs, out=buf)
    assert buf.getvalue() == corpus_json_bytes(reference)
    corpus = json.loads(buf.getvalue())
    theories = [theory for entry in corpus["groups"] for theory in entry["theories"]]
    assert len(theories) == 3
    for theory in theories:
        rows = {tid: [r for r in theory["reports"] if r["theorem_id"] == tid] for tid in ("T-zs", "L-vs", "C-class")}
        assert rows["T-zs"] == [
            {"theorem_id": "T-zs", "scope": {"error": "late", "exception": "ValueError"}, "status": "fail"}]
        assert [r["scope"]["element"] for r in rows["L-vs"]] == list(range(CHUNK_ROWS))
        assert rows["C-class"] == [{"theorem_id": "C-class", "scope": {}, "status": "not-applicable"}]
    assert [(f["group"], f["theory"], f["theorem_id"]) for f in fails] == [
        ("C2", 0, "T-zs"), ("S3", 0, "T-zs"), ("S3", 1, "T-zs")]
    assert corpus["summary"]["fail"] == 3


def _traced_peak(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_stream_never_holds_a_group_report_tree():
    # C2xC2xC2 alone is 1.4 MB of JSON; both paths write it to the same
    # kind of buffer, so the difference is the report tree the oracle holds
    def streamed():
        run_corpus(["C2xC2xC2"], out=io.BytesIO())

    def oracle():
        corpus_oracle.run_corpus(["C2xC2xC2"], out=io.BytesIO())

    run_corpus(["C2xC2"], out=io.BytesIO())  # module-level caches filled untraced
    ratio = _traced_peak(streamed) / _traced_peak(oracle)
    assert ratio <= 0.6, ratio


def test_the_stream_never_holds_a_theorem_of_report_dicts():
    # the finest theory of C2xC2xC2xC2 has 67 S-normal subgroups, so 4,489
    # reports for each all-pairs theorem: the stream holds them encoded
    def streamed():
        run_corpus(["C2xC2xC2xC2"], all_scts=False, out=io.BytesIO())

    def oracle():
        corpus_oracle.run_corpus(["C2xC2xC2xC2"], all_scts=False, out=io.BytesIO())

    run_corpus(["C2xC2"], out=io.BytesIO())  # module-level caches filled untraced
    ratio = _traced_peak(streamed) / _traced_peak(oracle)
    assert ratio <= 0.55, ratio


@pytest.mark.slow
def test_c2_to_the_fifth_extremes_stay_under_150_mb():
    # 43 MB of JSON; a fresh interpreter runs the command as its only child,
    # so RUSAGE_CHILDREN reads the command's peak and not this process's
    src = Path(__file__).resolve().parent.parent / "src"
    command = [sys.executable, "-m", "superchar.cli", "verify", "--extremes-only",
               "--group", "C2xC2xC2xC2xC2", "--format", "json"]
    script = (
        "import resource, subprocess, sys\n"
        f"subprocess.run({command!r}, stdout=subprocess.DEVNULL, check=True, timeout=120)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=150)
    peak_kib = int(run.stdout)
    assert peak_kib <= 150 * 1024, peak_kib


@pytest.mark.slow
def test_c2_to_the_fourth_enumerates_and_verifies_past_the_guard(tmp_path):
    # 16 classes, 12,537 theories: the guard is raised in the child only.
    # The search holds the rings in bytes and each theory lives from its
    # read to its eviction: enumerate peaked at 96.8 MB and verify at
    # 106.8 MB when the search returned every derived theory
    # The peak is the child's VmHWM, which exec resets: its ru_maxrss would
    # count the peak of this process, which started it
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from superchar import cli, supertheory\n"
        "supertheory.MAX_CLASSES = 16\n"
        "assert cli.main(sys.argv[1:]) in (0, 1)\n"
        "with open('/proc/self/status', encoding='ascii') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))

    def peak_mb(*argv):
        run = subprocess.run([sys.executable, "-c", script, *argv, "--group", "C2xC2xC2xC2", "--format", "json"],
                             env=env, capture_output=True, text=True, check=True, timeout=600)
        return int(run.stdout) / 1024

    out = tmp_path / "enumerate.json"
    assert peak_mb("enumerate", "--out", str(out)) <= 30
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    assert digest.hexdigest() == "d6f5d1f989c4a523e973ef5382fb7e65838757740206359206b2c551bdeb10b7"
    assert peak_mb("verify", "--out", os.devnull) <= 55
