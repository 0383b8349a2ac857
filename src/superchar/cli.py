"""Command-line front end.

Subcommands: chartab, enumerate, analyze, verify.  Exit codes: 0 on
success (for verify: all checks pass), 1 when verify found a theorem
failure, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from .chartab import DEFAULT_MAX_ORDER, character_table_of, ingest_table
from .errors import CharacterTableError, GroupConstructionError, SuperTheoryError
from .groups import GroupTable, build_group, read_text
from .reports import CheckReport
from .structure import (
    hypercenter,
    is_s_abelian,
    lower_series,
    s_center,
    s_commutator_full,
    s_nilpotence_class,
    s_normal_subgroups,
    upper_series,
)
from .supertheory import SuperTheory, coarsest, enumerate_scts, finest, is_delta_product, sct_from_class_partition
from .vanishing import (
    gcp_holds,
    is_vz,
    scd_check,
    u_chain,
    u_rel,
    u_theory,
    v_rel,
    v_series,
    v_theory,
)
from .verifier import DEFAULT_CATALOG, failing_reports, run_corpus, verify_groups

_USER_ERRORS = (GroupConstructionError, CharacterTableError, SuperTheoryError, OSError)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid positive integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _subgroup_names(table) -> dict[frozenset[int], str]:
    # Z(G) and [G,G] are Z(S) and [G,S] of the finest theory
    F = finest(table)
    names = {
        frozenset({0}): "1",
        frozenset(range(table.group.order)): "G",
    }
    names.setdefault(s_center(F).members, "Z(G)")
    names.setdefault(s_commutator_full(F).members, "[G,G]")
    return names


def _fmt_subgroup(members, names) -> str:
    body = "{" + ", ".join(str(x) for x in sorted(members)) + "}"
    name = names.get(frozenset(members))
    return f"{body} (= {name})" if name else body


def _select_theory(table, selector: str) -> SuperTheory:
    if selector == "finest":
        return finest(table)
    if selector == "coarsest":
        return coarsest(table)
    if selector.startswith("index:"):
        try:
            k = int(selector.split(":", 1)[1])
        except ValueError:
            raise SuperTheoryError(f"bad theory selector {selector!r}")
        theories = enumerate_scts(table)
        if not 0 <= k < len(theories):
            raise SuperTheoryError(
                f"theory index {k} out of range; the group has {len(theories)} theories"
            )
        return theories[k]
    raise SuperTheoryError(f"bad theory selector {selector!r}")


def _write_out(path: str, write):
    """write(fh) into path.  A new file, or a regular file with one link, is
    written beside path and moved onto it, with the old mode, only when
    write returns: a failed command creates no file and leaves an old one.
    A symlink to such a file is followed, and the file it names replaced.
    Anything else (a dangling link, a hard link, a device, a pipe) is
    written in place."""
    given = path
    st = os.lstat(path) if os.path.lexists(path) else None
    if st is not None and stat.S_ISLNK(st.st_mode):
        # realpath of /dev/stdout on a pipe is a "pipe:[N]" name, no file
        real = os.path.realpath(path)
        if os.path.isfile(real):
            path, st = real, os.stat(real)
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        with open(path, "wb") as fh:
            return write(fh)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "xb")
    except OSError as exc:  # name the path given, not the file beside it
        raise OSError(exc.errno, exc.strerror, given) from None
    try:
        with fh:
            result = write(fh)
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return result


def _stream(out_path: str | None, write, end: bytes = b"\n"):
    """write(fh) to a binary stream: the --out file through _write_out, or
    standard output followed by end.  Returns what write returns."""
    if out_path:
        return _write_out(out_path, write)
    sys.stdout.flush()
    result = write(sys.stdout.buffer)
    sys.stdout.buffer.write(end)
    return result


def _emit(text: str, out_path: str | None) -> None:
    _stream(out_path, lambda fh: fh.write(text.encode("utf-8")),
            b"" if text.endswith("\n") else b"\n")


def _cmd_chartab(args) -> int:
    G = build_group(args.group, DEFAULT_MAX_ORDER)
    if args.ingest:
        table = ingest_table(read_text(args.ingest), G)
        print(f"ingested table for {G.label}: all validation checks pass", file=sys.stderr)
    else:
        table = character_table_of(G)
    if args.format == "json":
        payload = table.to_json()
        payload["validation"] = table.validation.to_json()
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(table.to_text(), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    G = build_group(args.group, DEFAULT_MAX_ORDER)
    table = character_table_of(G)
    theories = enumerate_scts(table)
    if args.format == "json":
        # the bytes of the indented, key-sorted dump of {"count", "group",
        # "theories"}, one theory at a time: an encoded theory has newlines
        # only between tokens, so indenting it two levels deeper is exact
        def write(fh):
            fh.write(f'{{\n  "count": {len(theories)},\n  "group": {json.dumps(G.label)},\n'
                     f'  "theories": ['.encode("ascii"))
            sep = "\n    "
            for S in theories:
                text = json.dumps(S.to_json(), indent=2, sort_keys=True)
                fh.write((sep + text.replace("\n", "\n    ")).encode("ascii"))
                sep = ",\n    "
                sct_from_class_partition.evict(table, S.yparts)
            fh.write(b"\n  ]\n}")

        _stream(args.out, write)
    else:
        def write(fh):
            fh.write(f"{len(theories)} supercharacter theories of {G.label}\n".encode("utf-8"))
            for i, S in enumerate(theories):
                fh.write(f"\ntheory index:{i}\n{S.to_text()}".encode("utf-8"))
                sct_from_class_partition.evict(table, S.yparts)

        _stream(args.out, write, b"")  # a theory's text ends with a newline
    return 0


def _analysis(G: GroupTable, S: SuperTheory) -> dict:
    center = s_center(S)
    com = s_commutator_full(S)
    subs = s_normal_subgroups(S)
    per_n = []
    for N in subs:
        per_n.append(
            {
                "n": list(N.sorted_members()),
                "v_rel": list(v_rel(S, N).sorted_members()),
                "u_rel": list(u_rel(S, N).sorted_members()),
                "u_chain": u_chain(S, N).to_json()["terms"],
                "camina_pair": is_delta_product(S, N, N),
                "gcp": gcp_holds(S, N),
                "gcp_vacuous": len(N) == G.order,
            }
        )
    vz = is_vz(S)
    cls = s_nilpotence_class(S)
    if is_s_abelian(S) or not vz.holds:  # L-scd's hypothesis fails: no degree checks
        scd = CheckReport(f"supercharacter degrees for a theory of {G.label}")
        scd.note("not a non-S-abelian VZ theory; not applicable")
    else:
        scd = scd_check(S)
    return {
        "group": {"label": G.label, "order": G.order},
        "xparts": S.xparts_json(),
        "yparts": S.yparts.to_json(),
        "s_abelian": is_s_abelian(S),
        "z_s": list(center.sorted_members()),
        "commutator": list(com.sorted_members()),
        "s_normal_subgroups": [list(N.sorted_members()) for N in subs],
        "v_s": list(v_theory(S).sorted_members()),
        "u_s": list(u_theory(S).sorted_members()),
        "per_subgroup": per_n,
        "lower_series": lower_series(S).to_json(),
        "upper_series": upper_series(S).to_json(),
        "v_series": v_series(S).to_json(),
        "hypercenter": list(hypercenter(S).sorted_members()),
        "nilpotence_class": cls,
        "vz": vz.to_json(),
        "scd": scd.to_json(),
    }


def _analysis_text(G: GroupTable, S: SuperTheory, data: dict) -> str:
    names = _subgroup_names(S.table)
    f = lambda members: _fmt_subgroup(members, names)
    lines = [f"analysis of a supercharacter theory of {G.label} (order {G.order})"]
    lines.append(S.to_text().rstrip())
    lines.append(f"S-abelian:        {data['s_abelian']}")
    lines.append(f"Z(S)            = {f(data['z_s'])}")
    lines.append(f"[G,S]           = {f(data['commutator'])}")
    lines.append(f"V(S)            = {f(data['v_s'])}")
    lines.append(f"U(S)            = {f(data['u_s'])}")
    lines.append(f"hypercenter     = {f(data['hypercenter'])}")
    lines.append(f"nilpotence class: {data['nilpotence_class']}")
    lines.append(f"VZ theory:        {data['vz']['holds']}")
    lines.append("S-normal subgroups and their V/U values:")
    for entry in data["per_subgroup"]:
        lines.append(
            f"  N = {f(entry['n'])}: V(S|N) = {f(entry['v_rel'])}, "
            f"U(S|N) = {f(entry['u_rel'])}, Camina pair: {entry['camina_pair']}, "
            f"GCP: {entry['gcp']}" + (" (vacuous)" if entry["gcp_vacuous"] else "")
        )
    lines.append(f"lower series:   {[sorted(t) for t in data['lower_series']['terms']]}")
    lines.append(f"upper series:   {[sorted(t) for t in data['upper_series']['terms']]}")
    lines.append(f"V-series:       {[sorted(t) for t in data['v_series']['terms']]}")
    if data["scd"]["checks"]:
        lines.append(f"degree checks:  {'ok' if data['scd']['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    G = build_group(args.group, DEFAULT_MAX_ORDER)
    table = character_table_of(G)
    S = _select_theory(table, args.sct)
    data = _analysis(G, S)
    if args.format == "json":
        _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
    else:
        _emit(_analysis_text(G, S, data), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.group and args.catalog:
        raise SuperTheoryError("--group and --catalog cannot be given together")
    if args.group:
        specs = [args.group]
    elif args.catalog in (None, "default"):
        specs = list(DEFAULT_CATALOG)
    else:
        raise SuperTheoryError(f"unknown catalog {args.catalog!r}")
    options = {"all_scts": args.all_scts, "jobs": args.jobs, "max_order": args.max_order}
    if args.format == "json":
        # streamed: each theory is written as soon as it is verified
        fails = _stream(args.out, lambda fh: run_corpus(specs, out=fh, **options))
        return 1 if fails else 0
    skipped = []
    groups = list(verify_groups(specs, **options, skipped=skipped))
    fails = failing_reports({"groups": groups})
    lines = ["theorem corpus report"]
    for entry in groups:
        counts = entry["counts"]
        lines.append(
            f"  {entry['label']:10s} order {entry['order']:3d}  "
            f"theories {entry['theory_count']:4d}  pass {counts['pass']:6d}  "
            f"fail {counts['fail']:3d}  vacuous {counts['vacuous']:5d}  "
            f"n/a {counts['na']:5d}"
        )
    if skipped:
        lines.append(f"skipped: {', '.join(skipped)}")
    s = {key: sum(entry["counts"][key] for entry in groups) for key in ("pass", "fail", "vacuous", "na")}
    lines.append(
        f"summary: pass {s['pass']}, fail {s['fail']}, vacuous {s['vacuous']}, n/a {s['na']}"
    )
    for failure in fails:
        lines.append(f"  FAIL {failure['group']} theory {failure['theory']} "
                     f"{failure['theorem_id']} at {failure['scope']}")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 1 if fails else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superchar",
        description="supercharacter theories of small finite groups, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("chartab", help="compute or ingest a character table")
    p.add_argument("--group", required=True, help="catalog name, file:PATH, or perm:PATH")
    p.add_argument("--ingest", help="validate a character table file against the group")
    common(p)
    p.set_defaults(fn=_cmd_chartab)

    p = sub.add_parser("enumerate", help="enumerate all supercharacter theories")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("analyze", help="structural analysis of one theory")
    p.add_argument("--group", required=True)
    p.add_argument("--sct", default="finest", help="finest | coarsest | index:k")
    common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("verify", help="run the theorem suite over a corpus")
    p.add_argument("--group", help="verify a single group instead of the catalog")
    p.add_argument("--catalog", help="catalog name (default)")
    p.add_argument("--extremes-only", dest="all_scts", action="store_false",
                   help="only the finest and coarsest theories")
    p.add_argument("--max-order", type=_positive_int, help="skip catalog groups above this order")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker processes")
    common(p)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
