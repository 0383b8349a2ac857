import gc
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from superchar.chartab import CharacterTable, character_table_of
from superchar.errors import OrderBoundError
from superchar.groups import GroupTable, catalog_group
from superchar.supertheory import enumerate_scts, finest
from superchar.verifier import (
    DEFAULT_CATALOG,
    THEOREM_DESCRIPTIONS,
    THEOREM_IDS,
    failing_reports,
    run_corpus,
    run_suite,
    verify_groups,
)


def suite(S) -> list[dict]:
    """The reports `run_suite` encodes, decoded; the status counts and the
    failing reports it keeps beside them must agree with them."""
    counts, fails = dict.fromkeys(("pass", "fail", "vacuous", "na"), 0), []
    reports = json.loads(b"[%s]" % b"".join(run_suite(S, counts, fails)))
    statuses = [r["status"].replace("not-applicable", "na") for r in reports]
    assert counts == {key: statuses.count(key) for key in counts}
    assert fails == [r for r in reports if r["status"] == "fail"]
    return reports


def streamed(specs, **options) -> bytes:
    """The bytes `run_corpus` writes through `out`."""
    buf = io.BytesIO()
    run_corpus(specs, out=buf, **options)
    return buf.getvalue()


def test_theorem_registry_is_complete():
    # the report order of every theory follows this tuple
    assert THEOREM_IDS == (
        "T-celt",
        "T-corgcp",
        "L-cp",
        "L-vs",
        "T-zeta",
        "C-class",
        "C-hyper",
        "L-vsn",
        "T-vseries",
        "C-vterm",
        "L-vzs",
        "T-zs",
        "T-vznilp",
        "L-scd",
        "L-unormal",
        "L-irr",
        "L-uorder",
        "L-ugroup",
        "C-ucorr",
        "C-ucor",
        "T-ugroupp",
        "L-ucap",
        "T-udelta",
        "L-uchain",
        "L-uquot",
        "L-ukernel",
        "T-final",
        "L-sabelian-gcp",
        "P-roworth",
        "P-colorth",
        "P-prop42",
    )
    assert list(THEOREM_DESCRIPTIONS) == list(THEOREM_IDS)
    assert all(THEOREM_DESCRIPTIONS.values())


def test_registering_an_existing_theorem_id_raises():
    import superchar.verifier as verifier

    before = dict(verifier._CHECKERS)
    with pytest.raises(ValueError, match="L-vs"):
        verifier.theorem("L-vs", "a second checker")(lambda S: [])
    assert verifier._CHECKERS == before


def test_every_theorem_id_appears_for_c2():
    S = finest(character_table_of(catalog_group("C2")))
    reports = suite(S)
    # one non-empty run of reports per theorem, in registration order
    assert [tid for tid, _ in itertools.groupby(r["theorem_id"] for r in reports)] == list(THEOREM_IDS)
    assert {r["theorem_id"] for r in reports} == set(THEOREM_IDS)
    assert all(r["status"] in ("pass", "vacuous", "not-applicable") for r in reports)


def test_trivial_group_suite_runs_clean():
    S = finest(character_table_of(catalog_group("C1")))
    reports = suite(S)
    assert {r["theorem_id"] for r in reports} == set(THEOREM_IDS)
    assert not [r for r in reports if r["status"] == "fail"]


def test_s3_finest_all_pass():
    S = finest(character_table_of(catalog_group("S3")))
    reports = suite(S)
    assert not [r for r in reports if r["status"] == "fail"]
    corgcp = [r for r in reports if r["theorem_id"] == "T-corgcp"]
    by_scope = {tuple(r["scope"]["n"]): r["status"] for r in corgcp}
    assert by_scope[(0, 3, 4)] == "pass"
    assert by_scope[(0, 1, 2, 3, 4, 5)] == "vacuous"


def test_q8_finest_key_reports():
    S = finest(character_table_of(catalog_group("Q8")))
    reports = suite(S)
    assert not [r for r in reports if r["status"] == "fail"]
    assert [r["status"] for r in reports if r["theorem_id"] == "T-zs"] == ["pass"]
    assert [r["status"] for r in reports if r["theorem_id"] == "T-final"] == ["pass"]
    assert [r["status"] for r in reports if r["theorem_id"] == "T-vznilp"] == ["pass"]
    assert [r["status"] for r in reports if r["theorem_id"] == "L-scd"] == ["pass"]


def test_all_scts_of_every_small_group_pass():
    for name in ("C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4"):
        table = character_table_of(catalog_group(name))
        for S in enumerate_scts(table):
            fails = [r for r in suite(S) if r["status"] == "fail"]
            assert not fails, (name, fails[:3])


def test_corpus_counts():
    corpus = run_corpus(["C2", "C3", "C4"])
    counts = {e["label"]: e["theory_count"] for e in corpus["groups"]}
    assert counts == {"C2": 1, "C3": 2, "C4": 3}
    assert corpus["summary"]["fail"] == 0
    assert failing_reports(corpus) == []


def test_empty_corpus():
    corpus = run_corpus([])
    assert corpus["groups"] == []
    assert corpus["summary"] == {"pass": 0, "fail": 0, "vacuous": 0, "na": 0}


def test_corpus_respects_max_order():
    corpus = run_corpus(["C2", "S4"], max_order=10)
    assert [e["label"] for e in corpus["groups"]] == ["C2"]
    assert corpus["skipped"] == ["S4"]


def test_corpus_extremes_only_mode():
    corpus = run_corpus(["Q8"], all_scts=False)
    entry = corpus["groups"][0]
    assert entry["theory_count"] == 2 and not entry["enumerated"]
    assert corpus["summary"]["fail"] == 0


def test_determinism_across_worker_counts():
    specs = ["S3", "C4", "Q8", "D4"]
    serial = streamed(specs, jobs=1)
    parallel = streamed(specs, jobs=2)
    assert serial == parallel
    again = streamed(specs, jobs=1)
    assert serial == again


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize(
    "specs, max_order",
    [(["C4", "S4", "Q8"], 10), (["S4"], 10), ([], None), (["S3", "D4"], None)],
)
def test_streamed_bytes_are_the_canonical_encoding_of_the_corpus(specs, max_order, jobs):
    # the whole-dict encoding is the reference: keys sorted, no spaces, ASCII
    corpus = run_corpus(specs, max_order=max_order)
    whole = json.dumps(corpus, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert streamed(specs, max_order=max_order, jobs=jobs) == whole


def test_the_stream_returns_only_the_failing_reports(monkeypatch):
    import superchar.verifier as verifier

    def broken(S):
        raise KeyError("missing scope")

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", broken)
    buf = io.BytesIO()
    fails = run_corpus(["C2", "S3"], out=buf)
    assert fails == failing_reports(json.loads(buf.getvalue()))
    assert [(f["group"], f["theorem_id"]) for f in fails] == [("C2", "L-vs"), ("S3", "L-vs"), ("S3", "L-vs")]


def test_an_earlier_group_is_freed_before_the_next_is_written():
    # counted by object, not by resident memory: every write (a theory at a
    # time, then the tail) sees the group tables and character tables of
    # at most one group, the one being written, and the groups in order
    specs = ["D4", "Q8", "A4", "C2xC4"]
    gc.collect()
    before = {id(x) for x in gc.get_objects() if isinstance(x, (GroupTable, CharacterTable))}

    def root(x):
        label = (x.group if isinstance(x, CharacterTable) else x).label
        return label.split("/")[0].split("|")[0]

    class Recorder(io.BytesIO):
        alive = []

        def write(self, data):
            tables = [x for x in gc.get_objects()
                      if isinstance(x, (GroupTable, CharacterTable)) and id(x) not in before]
            self.alive.append({root(x) for x in tables})
            return super().write(data)

    run_corpus(specs, out=Recorder())
    assert len(Recorder.alive) > len(specs) + 1  # more than one write per group
    assert all(len(alive) <= 1 for alive in Recorder.alive), Recorder.alive
    order = [group for alive in Recorder.alive for group in alive]
    assert [g for k, g in enumerate(order) if k == 0 or order[k - 1] != g] == specs


def test_a_serial_run_collects_after_each_group(monkeypatch):
    # each group's cyclic caches are freed as soon as its last piece is made,
    # before the next group starts
    calls = []
    monkeypatch.setattr(gc, "collect", lambda *args: calls.append(args) or 0)
    run_corpus(["C2", "C3", "C4"])
    assert len(calls) == 3
    calls.clear()
    run_corpus(["C2"])
    assert len(calls) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_heap_is_frozen_for_the_run_and_thawed_after(jobs):
    # what exists before the run is out of the collector's reach while it
    # lasts; after it, raising or not, the freeze count is as it was
    before = gc.get_freeze_count()
    counts = []

    class Recorder(io.BytesIO):
        def write(self, data):
            counts.append(gc.get_freeze_count())
            if data == b"," and self.fail:  # the second group's first write, as on a full disk
                raise OSError("no space left")
            return super().write(data)

    Recorder.fail = False
    run_corpus(["C2", "C3"], jobs=jobs, out=Recorder())
    assert gc.get_freeze_count() == before and counts and all(counts)
    Recorder.fail = True
    with pytest.raises(OSError, match="no space left"):
        run_corpus(["C2", "C3"], jobs=jobs, out=Recorder())
    assert gc.get_freeze_count() == before
    with pytest.raises(OrderBoundError):  # raised while the first group is built
        run_corpus(["C1000", "C2"], jobs=jobs, max_order=2000)
    assert gc.get_freeze_count() == before


def test_a_run_leaves_what_the_caller_froze_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        run_corpus(["C2", "C3"])
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_pool_is_capped_at_the_number_of_groups(monkeypatch, no_child_left):
    # a recording stand-in for os.fork: it forks for real, and its third
    # call raises before anything is forked, so a broken cap fails before a
    # third worker is started
    from superchar import verifier

    # a fork bound when the module loads would bypass the stand-in and start
    # a million real workers
    assert "fork" not in vars(verifier)
    calls, fork, kill, waitpid, kills, codes = [], os.fork, os.kill, os.waitpid, [], []

    def recording_fork():
        calls.append(None)
        if len(calls) > 2:
            raise AssertionError("a third worker for two groups")
        return fork()

    def recording_kill(pid, sig):
        kills.append(pid)
        kill(pid, sig)

    def recording_waitpid(pid, options):
        pid, status = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return pid, status

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "kill", recording_kill)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    pooled = streamed(["C2", "C3"], jobs=10**6)
    assert len(calls) == 2
    # a clean run stops every worker by its stop frame: none is killed, and
    # the pool reaps each one with exit code 0
    assert kills == [] and codes == [0, 0]
    no_child_left()
    assert pooled == streamed(["C2", "C3"])


def test_the_slowest_group_first_keeps_the_catalog_order(no_child_left):
    # C2xC2xC2 takes longer than the three after it together, so they end
    # first and wait in the parent for its turn
    specs = ["C2xC2xC2", "C2", "C3", "S3"]
    assert streamed(specs, jobs=2) == streamed(specs)
    no_child_left()


def test_an_error_in_a_later_group_leaves_the_serial_prefix(monkeypatch, no_child_left):
    # the third group raises while its worker builds its theories; the
    # groups before it are written, at any worker count, and nothing after
    from superchar import verifier
    from superchar.errors import ConsistencyError

    specs = ["C2", "C3", "S3", "C4", "Q8"]
    theories_for = verifier._theories_for

    def planted(table, all_scts):
        if table.group.label == "S3":
            raise ConsistencyError("planted in S3")
        return theories_for(table, all_scts)

    monkeypatch.setattr(verifier, "_theories_for", planted)
    prefixes = []
    for jobs in (1, 2):
        buf = io.BytesIO()
        with pytest.raises(ConsistencyError, match="planted in S3"):
            run_corpus(specs, jobs=jobs, out=buf)
        no_child_left()
        prefixes.append(buf.getvalue())
    assert prefixes[0] == prefixes[1] == streamed(specs[:2]).rsplit(b"]", 1)[0]


def test_no_worker_outlives_a_failed_write_or_a_closed_run(no_child_left):
    specs = ["C2", "C3", "S3", "C4", "Q8"]

    class FullDisk(io.BytesIO):
        def write(self, data):
            if self.tell() > 8000:  # past the first two groups, as on a full disk
                raise OSError("no space left")
            return super().write(data)

    with pytest.raises(OSError, match="no space left"):
        run_corpus(specs, jobs=2, out=FullDisk())
    no_child_left()
    tallies = verify_groups(specs, jobs=2)
    assert next(tallies)["label"] == "C2"
    tallies.close()
    no_child_left()


def test_the_pool_watches_pipes_past_fd_setsize(no_child_left):
    # select.select refuses an fd of 1024 (FD_SETSIZE) or more; with the
    # low fds taken, two workers' pipes lie past it, as in a run of some 500
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < 1200:
        if hard != resource.RLIM_INFINITY and hard < 1200:
            pytest.skip("the fd limit is below 1200")
        resource.setrlimit(resource.RLIMIT_NOFILE, (1200, hard))
    filler = []
    try:
        while not filler or filler[-1] < 1024:
            filler.append(os.open(os.devnull, os.O_RDONLY))
        pooled = streamed(["C2", "C3", "S3"], jobs=2)
    finally:
        for fd in filler:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    no_child_left()
    assert pooled == streamed(["C2", "C3", "S3"])


def test_a_worker_never_returns_into_the_caller(monkeypatch, no_child_left):
    # SystemExit passes the suite's `except Exception`: raised in a worker on
    # S3, it ends that worker, which must not unwind into the stack it was
    # forked from and go on running the tests
    from superchar import verifier

    parent = os.getpid()
    check = verifier._CHECKERS["L-vs"]

    def exiting(S):
        if os.getpid() != parent and S.group.label == "S3":
            raise SystemExit(5)
        return check(S)

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", exiting)
    try:
        with pytest.raises(ChildProcessError, match="^the worker verifying S3 exited with code 1$"):
            run_corpus(["C2", "C3", "S3", "C4"], jobs=2)
    finally:
        if os.getpid() != parent:  # a worker came back here: end it with a code the parent's match refuses
            os._exit(99)
    assert os.getpid() == parent
    no_child_left()


def test_closing_a_run_kills_its_busy_workers(monkeypatch, no_child_left):
    # a worker stuck in a group the caller no longer wants is killed, not
    # waited for
    from superchar import verifier

    parent = os.getpid()
    check = verifier._CHECKERS["L-vs"]

    def stuck(S):
        if os.getpid() != parent and S.group.label == "S3":
            time.sleep(60)
        return check(S)

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", stuck)
    tallies = verify_groups(["C2", "S3", "C3"], jobs=2)
    assert next(tallies)["label"] == "C2"
    start = time.monotonic()
    tallies.close()
    assert time.monotonic() - start < 30
    no_child_left()


_POOL_MEMORY = """
import os, resource, sys

def peak_kib():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

import superchar.cli
imported = peak_kib()
from superchar.verifier import DEFAULT_CATALOG, run_corpus
with open(os.devnull, "wb") as out:
    run_corpus(DEFAULT_CATALOG, jobs=2, out=out)
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(imported, peak_kib(), workers, *sorted({m.split(".")[0] for m in sys.modules} & {"concurrent", "multiprocessing", "pickle"}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_the_pool_parent_holds_no_results_and_imports_no_executor():
    # the parent of `--jobs 2` verifies nothing: over its peak after the CLI
    # import it grew by 6.5 MB when it unpickled whole groups' blocks and
    # imported concurrent.futures, by 2.4-2.7 MB streaming them through
    # multiprocessing (1.6 MB of it the import), and by 0.1-0.9 MB over
    # forked workers and plain pipes; pickle is imported only for an error.
    # Each worker, forked before anything else was added to the parent,
    # peaks at or below the parent's post-import peak
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _POOL_MEMORY], env=env, capture_output=True, text=True, check=True)
    imported, parent, workers, *pool_modules = run.stdout.split()
    assert pool_modules == []
    assert int(parent) - int(imported) <= 1.5 * 1024
    assert int(workers) <= int(imported)


def test_a_group_refused_in_a_worker_reaches_the_caller():
    # above the Dixon limit and not above max_order: the worker's error is
    # sent back by pickle, with its order (`OrderBoundError.__reduce__`)
    from superchar.errors import OrderBoundError

    with pytest.raises(OrderBoundError, match="order 1000 exceeds the bound 64") as caught:
        run_corpus(["C1000", "C2"], jobs=2, max_order=2000)
    assert caught.value.order == 1000


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_group_refused_after_the_first_writes_nothing(jobs, tmp_path):
    # every spec after the first is built before the first group is written
    from superchar.errors import GroupConstructionError, OrderBoundError

    buf = io.BytesIO()
    with pytest.raises(OrderBoundError):
        run_corpus(["C2", "C1000", "C3"], max_order=2000, jobs=jobs, out=buf)
    assert buf.getvalue() == b""
    malformed = tmp_path / "g.txt"
    malformed.write_text("0 1\n1 1\n")
    with pytest.raises(GroupConstructionError):
        run_corpus(["C2", f"file:{malformed}", "C3"], jobs=jobs, out=buf)
    assert buf.getvalue() == b""


def test_default_catalog_is_the_documented_one():
    assert DEFAULT_CATALOG[0] == "C2" and "Q16" in DEFAULT_CATALOG and "S4" in DEFAULT_CATALOG
    assert len(DEFAULT_CATALOG) == 19


def test_out_of_catalog_group_passes():
    corpus = run_corpus(["D7"])
    assert corpus["summary"]["fail"] == 0
    assert corpus["groups"][0]["theory_count"] >= 2


def test_corrupted_theory_is_caught():
    # bypass the derivation pipeline and tamper with a sigma value: the
    # re-validation fails and the suite reports failures instead of passing
    from superchar.supertheory import SuperTheory, coarsest

    from arith_oracle import Ref

    table = character_table_of(catalog_group("S3"))
    S = coarsest(table)
    bad_sigma = tuple(
        tuple(Ref.of(v).scale(-1).value() if (i, j) == (1, 1) else v for j, v in enumerate(row))
        for i, row in enumerate(S.sigma)
    )
    corrupted = SuperTheory(table, S.xparts, S.yparts, S.ypart_classes, bad_sigma)
    assert not corrupted.validate().ok
    reports = suite(corrupted)
    assert any(r["status"] == "fail" for r in reports)
    orthogonality = {r["theorem_id"]: r for r in reports if r["theorem_id"] in ("P-roworth", "P-colorth")}
    assert orthogonality["P-roworth"]["status"] == "fail"
    assert orthogonality["P-roworth"]["witness"] == {"failing": ["pair-0-1"]}
    assert orthogonality["P-colorth"]["status"] == "fail"
    assert orthogonality["P-colorth"]["witness"] == {"g": 0, "h": 1}


def test_guard_fallback_to_extreme_theories():
    # C13 has 13 irreducible characters, above the enumeration guard, so
    # the corpus falls back to the finest and coarsest theories
    corpus = run_corpus(["C13"])
    entry = corpus["groups"][0]
    assert entry["theory_count"] == 2
    assert entry["enumerated"] is False
    assert corpus["summary"]["fail"] == 0


def test_any_checker_exception_becomes_a_fail_report(monkeypatch):
    import superchar.verifier as verifier

    def broken(S):
        raise KeyError("missing scope")

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", broken)
    reports = suite(finest(character_table_of(catalog_group("S3"))))
    failed = [r for r in reports if r["status"] == "fail"]
    assert [(r["theorem_id"], r["scope"]) for r in failed] == [
        ("L-vs", {"error": "'missing scope'", "exception": "KeyError"})
    ]
    assert {r["theorem_id"] for r in reports} == set(THEOREM_IDS)


def test_the_suite_never_calls_a_conclusion_whose_hypothesis_fails(monkeypatch):
    import superchar.verifier as verifier

    def conclusion():
        raise AssertionError("a conclusion called where its hypothesis fails")

    def planted(S):
        yield {"n": [0]}, False, conclusion
        yield {"m": 1}, True, lambda: (True, None)

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", planted)
    reports = suite(finest(character_table_of(catalog_group("S3"))))
    assert [(r["scope"], r["status"]) for r in reports if r["theorem_id"] == "L-vs"] == [
        ({"n": [0]}, "not-applicable"), ({"m": 1}, "pass")]


def test_an_exception_raised_by_a_conclusion_becomes_a_fail_report(monkeypatch):
    import superchar.verifier as verifier

    def planted(S):
        yield {"m": 1}, True, lambda: (True, None)
        yield {"m": 2}, True, lambda: {}["missing scope"]

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", planted)
    reports = suite(finest(character_table_of(catalog_group("S3"))))
    assert [(r["scope"], r["status"]) for r in reports if r["theorem_id"] == "L-vs"] == [
        ({"error": "'missing scope'", "exception": "KeyError"}, "fail")]
