import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from superchar.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chartab_text(capsys):
    code, out, _ = run_cli(capsys, "chartab", "--group", "S3")
    assert code == 0
    assert out.startswith("chartab S3 classes=3 exponent=6")
    assert "2, 0, -1" in out


def test_chartab_json(capsys):
    code, out, _ = run_cli(capsys, "chartab", "--group", "C2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [1, 1]
    assert payload["validation"]["ok"] is True


def test_chartab_ingest_good(capsys):
    code, out, err = run_cli(
        capsys, "chartab", "--group", "S3", "--ingest", str(DATA / "s3.tbl")
    )
    assert code == 0
    assert "validation checks pass" in err


def test_chartab_ingest_corrupted_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "chartab", "--group", "S3", "--ingest", str(DATA / "s3_bad_orth.tbl")
    )
    assert code == 2
    assert "orthogonality" in err


def test_chartab_nonassociative_file_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "chartab", "--group", f"file:{DATA / 'group_nonassoc.txt'}"
    )
    assert code == 2
    assert "associativity" in err


def test_chartab_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "chartab", "--group", "file:no_such_file.tbl")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("spec", ["x", "C2xx", "xC2", "C2x"])
def test_a_catalog_name_with_an_empty_factor_is_named_as_given(spec, capsys):
    for command in ("chartab", "enumerate", "verify"):
        code, out, err = run_cli(capsys, command, "--group", spec)
        assert code == 2 and out == ""
        assert err == f"error: unrecognized catalog name {spec!r}\n"


def test_enumerate_counts(capsys):
    for name, count in (("S3", 2), ("C4", 3), ("C2", 1)):
        code, out, _ = run_cli(capsys, "enumerate", "--group", name)
        assert code == 0
        assert out.startswith(f"{count} supercharacter theories")


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--group", "C4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert len(payload["theories"]) == 3


def test_analyze_q8(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "Q8", "--sct", "finest")
    assert code == 0
    assert "VZ theory:        True" in out
    assert "nilpotence class: 2" in out
    assert "U(S)            = {0, 1}" in out


def test_analyze_s3_camina_pair(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "S3", "--sct", "finest")
    assert code == 0
    assert "V(S)            = {0, 3, 4}" in out
    assert "Camina pair: True" in out


def test_analyze_coarsest_c4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "C4", "--sct", "coarsest")
    assert code == 0
    assert "Z(S)            = {0} (= 1)" in out
    assert "VZ theory:        False" in out


def test_analyze_index_selector_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "C4", "--sct", "index:1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"]["label"] == "C4"
    code, _, err = run_cli(capsys, "analyze", "--group", "C4", "--sct", "index:99")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--group", "C4", "--sct", "bogus")
    assert code == 2


@pytest.mark.parametrize("k, fmt, digest", [
    (0, "json", "ba9295ddc39feabd37ef0a18c64369f00a1d479df414c9071a8e835fe7dbef0b"),
    (0, "text", "85990c91403027050f557f5b48745ced81a6b2d28a3f8da983aabbe4f9160952"),
    (214, "json", "91cf89b9b978365d5fb4ff5e26089b667a6b74cd1658f785388b418e0b8dc04c"),
    (214, "text", "caf12d1c2a41a0415c01375d7a09919cc489043500ab0d3fb89825a32aacbd5b"),
])
def test_analyze_index_derives_only_its_theory(k, fmt, digest, capsysbinary, body_runs):
    # D4xC2 has 215 theories: the first and the last keep the bytes they had
    # when the search derived every theory, and selecting one derives only it
    from superchar.chartab import character_table_of
    from superchar.cli import _select_theory
    from superchar.groups import catalog_group
    from superchar.supertheory import sct_from_class_partition

    assert main(["analyze", "--group", "D4xC2", "--sct", f"index:{k}", "--format", fmt]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest
    table = character_table_of(catalog_group("D4xC2"))
    assert body_runs(sct_from_class_partition, lambda: _select_theory(table, f"index:{k}")) == 1


def test_analyze_index_past_the_last_theory_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--group", "D4xC2", "--sct", "index:215")
    assert code == 2 and out == ""
    assert err == "error: theory index 215 out of range; the group has 215 theories\n"


def test_verify_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "S3")
    assert code == 0
    assert "fail 0" in out.replace("fail   0", "fail 0")


def test_verify_json_and_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--group", "C4", "--format", "json", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["groups"][0]["label"] == "C4"


def test_verify_rejects_a_group_with_a_catalog(capsys):
    code, out, err = run_cli(capsys, "verify", "--group", "C2", "--catalog", "bogus")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--group", "C1000", "--format", "json"),
        ("verify", "--group", "C1000"),
        ("enumerate", "--group", "C13", "--format", "json"),
        ("chartab", "--group", "S3", "--ingest", str(DATA / "missing.tbl")),
    ],
)
def test_a_failed_command_leaves_the_out_path_as_it_was(argv, capsys, tmp_path):
    # the output is written beside the path and moved there only on success
    out_path = tmp_path / "p"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert os.listdir(tmp_path) == []
    out_path.write_bytes(b"earlier bytes\n")
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert os.listdir(tmp_path) == ["p"] and out_path.read_bytes() == b"earlier bytes\n"


def test_an_out_path_that_is_a_directory_leaves_no_file(capsys, tmp_path):
    (tmp_path / "d").mkdir()
    code, out, err = run_cli(capsys, "enumerate", "--group", "C2", "--out", str(tmp_path / "d"))
    assert code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_an_out_path_in_a_missing_directory_is_named_as_given(command, capsys, tmp_path):
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, command, "--group", "S3", "--format", "json", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"
    assert os.listdir(tmp_path) == []


def test_a_successful_command_replaces_the_out_file(capsys, tmp_path):
    out_path = tmp_path / "p"
    out_path.write_bytes(b"earlier bytes\n")
    code, out, _ = run_cli(capsys, "enumerate", "--group", "C2", "--out", str(out_path))
    assert code == 0 and out == ""
    assert os.listdir(tmp_path) == ["p"] and out_path.read_text().startswith("1 supercharacter theories of C2")


def test_out_links_are_written_through_and_a_mode_is_kept(capsys, tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"earlier bytes\n")
    target.chmod(0o640)
    link.symlink_to(target)
    code, out, _ = run_cli(capsys, "enumerate", "--group", "C2", "--out", str(link))
    assert code == 0 and out == ""
    assert link.is_symlink() and sorted(os.listdir(tmp_path)) == ["link", "target"]
    assert target.read_text().startswith("1 supercharacter theories of C2")
    code, _, _ = run_cli(capsys, "enumerate", "--group", "C3", "--out", str(target))
    assert code == 0 and target.read_text().startswith("2 supercharacter theories of C3")
    assert target.stat().st_mode & 0o777 == 0o640 and link.is_symlink()
    os.link(target, tmp_path / "hard")
    code, _, _ = run_cli(capsys, "enumerate", "--group", "C2", "--out", str(tmp_path / "hard"))
    assert code == 0 and target.read_text().startswith("1 supercharacter theories of C2")


def test_a_failed_command_leaves_a_linked_out_file_as_it_was(capsys, tmp_path):
    target, link = tmp_path / "t", tmp_path / "l"
    target.write_bytes(b"earlier bytes\n")
    link.symlink_to(target)
    code, out, err = run_cli(capsys, "verify", "--group", "C1000", "--format", "json", "--out", str(link))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert target.read_bytes() == b"earlier bytes\n" and link.is_symlink()
    assert sorted(os.listdir(tmp_path)) == ["l", "t"]


def test_verify_text_and_json_agree(capsys):
    code, text_out, _ = run_cli(capsys, "verify", "--group", "Q8")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "verify", "--group", "Q8", "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    s = payload["summary"]
    tail = text_out.strip().splitlines()[-1]
    assert tail == (
        f"summary: pass {s['pass']}, fail {s['fail']}, "
        f"vacuous {s['vacuous']}, n/a {s['na']}"
    )


def test_verify_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "file:missing.tbl")
    assert code == 2


def test_verify_permutation_input(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", f"perm:{DATA / 'perm_d4.txt'}")
    assert code == 0


def test_permutation_points_are_kept_only_where_they_occur(capsys, tmp_path):
    # a large point costs nothing: only the two points that occur are kept
    (tmp_path / "big.txt").write_text("(1 99999999999)\n")
    code, out, err = run_cli(capsys, "verify", "--group", f"perm:{tmp_path / 'big.txt'}")
    assert code == 0 and err == "" and " order   2 " in out


def test_verify_extremes_only_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--group", "Q8", "--extremes-only", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["groups"][0]["theory_count"] == 2


def test_verify_max_order_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--catalog", "default", "--max-order", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert {e["label"] for e in payload["groups"]} == {"C2", "C3", "C4", "C2xC2"}
    assert "S4" in payload["skipped"]


def test_verify_text_names_the_skipped_groups(capsys):
    # one line lists the groups that the JSON lists under "skipped"
    code, out, _ = run_cli(capsys, "verify", "--group", "C2", "--max-order", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["skipped: C2", "summary: pass 0, fail 0, vacuous 0, n/a 0"]
    code, out, _ = run_cli(capsys, "verify", "--max-order", "4")
    skipped = json.loads(run_cli(capsys, "verify", "--max-order", "4", "--format", "json")[1])["skipped"]
    assert code == 0 and len(skipped) == 15
    assert [line for line in out.splitlines() if "skipped" in line] == ["skipped: " + ", ".join(skipped)]


@pytest.mark.parametrize(
    "spec, text",
    [("C3000", None), ("perm:s10.txt", "(1 2 3 4 5 6 7 8 9 10)\n(1 2)\n")],
)
def test_verify_max_order_skips_before_building(spec, text, capsys, tmp_path, monkeypatch):
    # the order is read off the name, or the closure stops past the bound:
    # a skipped group never has its table built
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / spec.split(":", 1)[1]).write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--group", spec, "--max-order", "8", "--format", "json")
    assert time.perf_counter() - start < 0.5
    assert code == 0, err
    payload = json.loads(out)
    assert payload["groups"] == [] and payload["skipped"] == [spec]


def test_verify_rejects_nonpositive_max_order(capsys):
    for bound in ("0", "-1", "eight"):
        code, out, err = run_cli(capsys, "verify", "--group", "C2", "--max-order", bound)
        assert code == 2 and not out and "--max-order" in err


def test_usage_error_exits_2(capsys):
    assert main(["chartab"]) == 2  # missing --group
    assert main(["bogus-command"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_verify_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-3", "two"):
        code, out, err = run_cli(capsys, "verify", "--group", "C2", "--jobs", jobs)
        assert code == 2 and not out and "--jobs" in err


def test_verify_extremes_beyond_sixteen_superclasses(capsys):
    # 17 and 20 conjugacy classes: the finest theory has that many
    # superclasses, and its S-normal subgroups come from the lattice
    for name in ("C17", "C4xC5"):
        code, out, err = run_cli(
            capsys, "verify", "--extremes-only", "--group", name, "--format", "json"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0 and payload["summary"]["pass"] > 0
        assert payload["groups"][0]["theory_count"] == 2


@pytest.mark.parametrize(
    "spec, text",
    [
        ("C3000", None),
        ("C30000xD100", None),
        ("perm:s10.txt", "(1 2 3 4 5 6 7 8 9 10)\n(1 2)\n"),
        ("file:big.txt", "order 100000\n" + "0 1\n" * 1000),
        ("C1000", None),
    ],
)
def test_oversized_groups_fail_fast(spec, text, capsys, tmp_path, monkeypatch):
    # the order bound of the Dixon tables is checked before any table is
    # built: from the catalog name, during the permutation closure, and on
    # the header of a table file; a table to ingest does not lift it
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / spec.split(":", 1)[1]).write_text(text)
    runs = [(command, "--group", spec) for command in ("chartab", "enumerate", "verify")]
    runs.append(("chartab", "--group", spec, "--ingest", str(DATA / "s3.tbl")))
    if spec == "C1000":
        # a --max-order above the order does not skip the group, and the
        # group is still refused before its table is built
        runs.append(("verify", "--group", spec, "--max-order", "2000"))
    for argv in runs:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert "exceeds the bound 64" in err or "above the bound" in err


S3_TABLE = (DATA / "s3.tbl").read_bytes()
INGEST = ("chartab", "--group", "S3", "--ingest", "bad")


@pytest.mark.parametrize(
    "argv, data",
    [
        pytest.param(("chartab", "--group", "file:bad"), b"order 1\n\xff\n", id="table-not-utf8"),
        pytest.param(("verify", "--group", "perm:bad"), b"(1 2)\n(1 \xe9)\n", id="perm-not-utf8"),
        pytest.param(INGEST, S3_TABLE + b"#\xff\n", id="ingest-not-utf8"),
        pytest.param(("enumerate", "--group", "perm:bad"), b"(1 2.5)\n", id="non-integer-cycle-point"),
        pytest.param(("verify", "--group", "perm:bad"), b"(1 2)(1 2)\n", id="repeated-cycle"),
        pytest.param(("verify", "--group", "perm:bad"), b"(1 2 3)(3 2 1)\n", id="non-disjoint-cycles"),
        pytest.param(INGEST, S3_TABLE.replace(b"2, 0, -1", b"2, 1/0, -1"), id="zero-denominator"),
        pytest.param(("chartab", "--group", "C2", "--ingest", "bad"),
                     b"chartab C2 classes=2 exponent=2\nclass 0 size=1 rep=0\nclass 1 size=1 rep=1\n1, 1-+1\n1, -1\n",
                     id="bare-sign"),
        pytest.param(("chartab", "--group", "C4", "--ingest", "bad"),
                     (DATA / "c4.tbl").read_bytes().replace(b"exponent=4", b"exponent=6"),
                     id="exponent-not-a-multiple"),
    ],
)
def test_malformed_input_files_exit_2(argv, data, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(data)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


def test_a_dead_worker_exits_2_with_one_line(capsys, monkeypatch, tmp_path, no_child_left):
    # a checker that ends its worker process on S3, as a crash or the OOM
    # killer would; in the parent it would end the test run instead
    from superchar import cli, verifier

    parent = os.getpid()
    check = verifier._CHECKERS["L-vs"]

    def dying(S):
        if os.getpid() != parent and S.group.label == "S3":
            os._exit(3)
        return check(S)

    monkeypatch.setitem(verifier._CHECKERS, "L-vs", dying)
    monkeypatch.setattr(cli, "DEFAULT_CATALOG", ("C2", "C3", "S3", "C4"))
    out = tmp_path / "corpus.json"
    for fmt in ("json", "text"):
        code, stdout, err = run_cli(capsys, "verify", "--jobs", "2", "--format", fmt, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == "error: the worker verifying S3 exited with code 3\n"
        assert list(tmp_path.iterdir()) == []
        no_child_left()


def test_without_fork_jobs_verifies_serially(capsys, monkeypatch, tmp_path, no_child_left):
    # a platform without os.fork runs `verify --jobs N` on the serial path,
    # with its bytes, and never enters the pool
    from superchar import cli, verifier

    def pool(args, n):
        raise AssertionError("a pool without os.fork")

    monkeypatch.setattr(cli, "DEFAULT_CATALOG", ("C2", "C3", "S3", "C4"))
    serial, forkless = tmp_path / "serial.json", tmp_path / "forkless.json"
    assert run_cli(capsys, "verify", "--format", "json", "--out", str(serial))[0] == 0
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(verifier, "_pooled", pool)
    assert run_cli(capsys, "verify", "--jobs", "2", "--format", "json", "--out", str(forkless))[0] == 0
    assert forkless.read_bytes() == serial.read_bytes()
    no_child_left()


def test_cold_import_loads_no_pool_and_no_dataclasses():
    # every command starts by importing the CLI; what the process pool uses
    # (select; pickle, for an error) is imported only by `verify --jobs N`
    # with N > 1, no multiprocessing at all, and no record is a dataclass
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def modules(statement):
        code = f"{statement}; import sys; print(*sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return set(run.stdout.split())

    added = modules("import superchar.cli") - modules("pass")
    assert "superchar.cli" in added
    unwanted = ("concurrent", "multiprocessing", "select", "pickle", "dataclasses")
    assert {m for m in added if m.split(".")[0] in unwanted} == set()
