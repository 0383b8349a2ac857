"""The corpus as the verifier built it before it streamed theorem batches:
every group's report dicts are held as one nested dict, which is encoded
only once the whole group has been verified.  Serial only.

This is the oracle of the streamed bytes: `run_corpus(specs, out=buf)`
here must write the bytes `superchar.verifier.run_corpus` writes.
`run_suite` is the suite as it stood before it encoded its reports in
chunks, yielding each theorem's report dicts as one list, and `_report`
the dict of one row as every row was built before rows were written
straight from their scopes, its status given by `_status`, a rule of its
own; `_group_entry`, `_group_entry_worker` and `_collect` are the
dict-building driver as it stood, with only `run_suite`'s batches
flattened.
"""

import gc

from superchar.chartab import character_table_of
from superchar.groups import SubgroupSet
from superchar.verifier import (
    _CHECKERS,
    DEFAULT_CATALOG,
    THEOREM_IDS,
    VACUOUS,
    _build,
    _theories_for,
    corpus_json_bytes,
    failing_reports,
)


def _status(hypothesis, holds) -> str:
    """The status of a row, written apart from the verifier's rule."""
    if not hypothesis:
        return "not-applicable"
    if not holds:
        return "fail"
    return "vacuous" if hypothesis is VACUOUS else "pass"


def _report(tid: str, scope: dict, hypothesis, conclusion) -> dict:
    """The report dict of one (scope, hypothesis, conclusion) checker row,
    each subgroup of its scope as its sorted member list; the conclusion is
    called only where the hypothesis holds."""
    holds, witness = conclusion() if hypothesis else (None, None)
    scope = {k: list(v.sorted_members()) if isinstance(v, SubgroupSet) else v for k, v in scope.items()}
    out = {"theorem_id": tid, "scope": scope, "status": _status(hypothesis, holds)}
    if witness is not None:
        out["witness"] = witness
    return out


def run_suite(S):
    """Run every theorem over all applicable scopes of the theory, yielding
    each theorem's report dicts (rows of the corpus JSON) as one list, in
    registration order.

    Every theorem id appears at least once: a checker that yields no row
    gives one not-applicable report, and an exception raised by a checker
    becomes a fail report carrying its type and message rather than
    aborting the suite.
    """
    for tid in THEOREM_IDS:
        try:
            batch = [_report(tid, *row) for row in _CHECKERS[tid](S)]
        except Exception as exc:
            raised = {"error": str(exc), "exception": type(exc).__name__}
            batch = [{"theorem_id": tid, "scope": raised, "status": "fail"}]
        yield batch or [{"theorem_id": tid, "scope": {}, "status": "not-applicable"}]


def _reports(S) -> list[dict]:
    return [report for batch in run_suite(S) for report in batch]


def _group_entry(spec: str, all_scts: bool, max_order: int | None) -> dict | None:
    G = _build(spec, max_order)
    if G is None:
        return None
    table = character_table_of(G)
    theories, enumerated = _theories_for(table, all_scts)
    entries = []
    for idx, S in enumerate(theories):
        entries.append(
            {
                "index": idx,
                "xparts": S.xparts_json(),
                "yparts": S.yparts.to_json(),
                "reports": _reports(S),
            }
        )
    return {
        "label": G.label,
        "order": G.order,
        "theory_count": len(theories),
        "enumerated": enumerated,
        "theories": entries,
    }


def _group_entry_worker(args) -> dict | None:
    entry = _group_entry(*args)
    # the group's caches are cyclic (group _memo -> table -> theories ->
    # table): free them now rather than whenever the collector next runs
    gc.collect()
    return entry


_SUMMARY_KEY = {"pass": "pass", "fail": "fail", "vacuous": "vacuous", "not-applicable": "na"}


def run_corpus(specs=DEFAULT_CATALOG, all_scts: bool = True, max_order: int | None = None, out=None):
    """The corpus dict, or with out its canonical bytes written there and
    the failing reports returned."""
    specs = list(specs)
    for spec in specs[1:]:
        _build(spec, max_order)
    args = [(spec, all_scts, max_order) for spec in specs]
    return _collect(specs, map(_group_entry_worker, args), out)


def _collect(specs, entries, out):
    """Tally the entries of the specs as they arrive, in input order; keep
    them, or write each to out and keep its failing reports (see
    `run_corpus`)."""
    summary = {"pass": 0, "fail": 0, "vacuous": 0, "na": 0}
    kept, skipped = [], []
    head = b'{"groups":['  # written with the first group, so a refused group writes nothing
    for spec in specs:
        entry = next(entries)
        if entry is None:
            skipped.append(spec)
            continue
        for theory in entry["theories"]:
            for report in theory["reports"]:
                summary[_SUMMARY_KEY[report["status"]]] += 1
        if out is None:
            kept.append(entry)
        else:
            kept += failing_reports({"groups": [entry]})
            out.write(head + corpus_json_bytes(entry))
            head = b","
        del entry  # not held while the next group is verified
    rest = {"skipped": skipped} if skipped else {}
    rest["summary"] = summary
    if out is None:
        return {"groups": kept, **rest}
    if head != b",":  # no group was written
        out.write(head)
    # "groups" sorts before "skipped" and "summary", so the rest closes the object
    out.write(b"]," + corpus_json_bytes(rest)[1:])
    return kept
