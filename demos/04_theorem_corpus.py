"""Running the structural theorem suite over a corpus of groups.

Every theorem is evaluated on every applicable scope (elements, S-normal
subgroups, pairs of them) of every supercharacter theory of every group.
All equivalences are computed from both sides independently, so a fail
report would be a genuine counterexample, not a shortcut artifact.
"""

import collections
import json

from superchar import (
    THEOREM_DESCRIPTIONS,
    catalog_group,
    character_table_of,
    failing_reports,
    finest,
    run_corpus,
    run_suite,
)

# --- one theory, all theorems ------------------------------------------------

S = finest(character_table_of(catalog_group("Q8")))
counts, failing = {"pass": 0, "fail": 0, "vacuous": 0, "na": 0}, []
# the suite yields the theory's reports as canonical JSON, counting as it goes
reports = json.loads(b"[%s]" % b"".join(run_suite(S, counts, failing)))
assert counts["fail"] == len(failing) == 0
by_status = collections.Counter(r["status"] for r in reports)
print(f"finest theory of Q8: {len(reports)} reports, {dict(by_status)}")
for tid in ("T-zs", "T-final", "T-vznilp", "L-scd"):
    rs = [r for r in reports if r["theorem_id"] == tid]
    print(f"  {tid:10s} {rs[0]['status']:5s}  {THEOREM_DESCRIPTIONS[tid]}")
print()

# --- a corpus ----------------------------------------------------------------

corpus = run_corpus(["C6", "S3", "D4", "Q8", "A4"], all_scts=True)
for entry in corpus["groups"]:
    print(
        f"{entry['label']:4s} order {entry['order']:2d}: "
        f"{entry['theory_count']:2d} theories verified"
    )
summary = {key: corpus["summary"][key] for key in ("pass", "fail", "vacuous", "na")}
print(f"summary: {summary}")

fails = failing_reports(corpus)
print(f"failing reports: {len(fails)}")
assert not fails
