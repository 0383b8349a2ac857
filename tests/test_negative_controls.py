"""Negative controls: each theorem's hypothesis is needed, and each checker
can fail.

On the default corpus, the conclusion of every row whose hypothesis fails
is called where `_encode_rows` calls the conclusion of a row whose
hypothesis holds: before the next row is pulled.  A false conclusion there
shows that the checker would notice a false conclusion, and that the
corpus separates the hypothesis.  The suite never calls these conclusions,
so none of this reaches the canonical bytes.

Ids without a row whose hypothesis fails have no control here: L-cp's
hypothesis picks its scopes (a row for each would add rows), and C-class
has no conclusion where the class is undefined.  T-ugroupp's control
never fails: on the S-abelian theories of the corpus U(S|N) is still the
largest subgroup with the vanishing property.  L-scd's hypothesis, a
non-S-abelian VZ theory, is its checker's, so `scd_check` makes its
degree checks on any theory and most of them fail off VZ.
"""

from superchar.chartab import character_table_of
from superchar.groups import SubgroupSet, catalog_group, release
from superchar.verifier import _CHECKERS, DEFAULT_CATALOG, _theories_for

# id -> (scopes whose hypothesis fails, false conclusions among them, the
# first false one in corpus order as (group, theory, scope, witness))
CONTROLS = {
    "T-zeta": (226, 222, ("C2", 0, {"m": 1}, {"zeta": [0, 1], "v": [0]})),
    "C-hyper": (118, 116, ("C2", 0, {}, None)),
    "L-vsn": (673, 308, ("C2", 0, {"n": [0, 1]}, {"v": [0], "deflated-v": [0]})),
    "T-vznilp": (224, 224, ("C2", 0, {}, {"class": 1})),
    "L-scd": (224, 214, ("C3", 1, {}, {"failing": ["degree-sigma-1", "degree-set"]})),
    "T-ugroupp": (10, 0, None),
    "L-ucap": (327, 224, ("C2", 0, {"n": [0, 1]}, None)),
    "L-uquot": (3330, 840, ("C6", 0, {"n": [0, 3], "h": [0, 2, 4]},
                            {"failing": ["deflated U = [0, 1, 2], projected U = [0]"]})),
    "T-final": (10, 10, ("C2", 0, {}, {"vz": True, "z=v": False, "u=[G,S]": False})),
}


def negative_controls(specs) -> dict:
    """id -> [scopes, false conclusions, first false (group, theory, scope,
    witness)] over the rows whose hypothesis fails, for every theory of
    specs."""
    found = {}
    for spec in specs:
        theories, _ = _theories_for(character_table_of(catalog_group(spec)), True)
        for idx, S in enumerate(theories):
            for tid, check in _CHECKERS.items():
                for scope, hypothesis, conclusion in check(S):
                    if hypothesis:
                        continue
                    control = found.setdefault(tid, [0, 0, None])
                    control[0] += 1
                    holds, witness = conclusion()
                    if not holds:
                        control[1] += 1
                        if control[2] is None:
                            plain = {k: list(v.sorted_members()) if type(v) is SubgroupSet else v
                                     for k, v in scope.items()}
                            control[2] = (spec, idx, plain, witness)
            release(S)
    return {tid: tuple(control) for tid, control in found.items()}


def test_every_failing_hypothesis_is_pinned_with_its_control():
    assert negative_controls(DEFAULT_CATALOG) == CONTROLS
