"""Test-only oracle: the quotient by the trivial subgroup built by the
general coset construction, as the package built every G/N before G/{1}
became G itself, and the deflation built rather than derived, as the
package built every S^{G/N} before it derived each on the table of G/N.

`quotient_group`, `quotient_character_table` and `deflation` are the
package's constructions, cut to a first-level quotient of a group that is
not itself a quotient and to a theory that is not itself a deflation, and
without their caches: each call builds a fresh group, inflated table or
theory.  Normality is decided by a conjugation scan of the oracle's own,
not by the lattice, and values stay in the parent table's field.  At N = {1} each must equal what the package
now returns without building anything: (G, identity), T and S.  At every
other S-normal N the built deflation must equal the derived one.
"""

from superchar.chartab import CharacterTable, _canonical_row_key
from superchar.cyclotomic import Cyclotomic
from superchar.errors import ConsistencyError, GroupConstructionError
from superchar.groups import ElementPartition, GroupTable, conjugacy_classes
from superchar.reports import CheckReport
from superchar.supertheory import SuperTheory, require_s_normal


def quotient_group(G, N):
    """G/N by its cosets, numbered by ascending minimal member, with the
    projection; N is checked normal by conjugating each of its members by
    every element, and the projection verified to be a homomorphism."""
    if N.parent is not G:
        raise GroupConstructionError("subgroup belongs to a different group")
    if any(G.conjugate(g, h) not in N.members for g in N.members for h in range(G.order)):
        raise GroupConstructionError("cannot form a quotient by a non-normal subgroup")
    coset_of = [-1] * G.order
    reps = []  # an element first met is the smallest of its coset
    for g in range(G.order):
        if coset_of[g] == -1:
            for n in N.members:
                coset_of[G.mul[g][n]] = len(reps)
            reps.append(g)
    proj = tuple(coset_of)
    Q = GroupTable([[proj[G.mul[a][b]] for b in reps] for a in reps], label=f"{G.label}/H{len(N)}")
    Q.quotient_of = (G, N)
    for a in range(G.order):
        for b in range(G.order):
            if proj[G.mul[a][b]] != Q.mul[proj[a]][proj[b]]:
                raise GroupConstructionError("projection is not a homomorphism")
    return Q, proj


def quotient_character_table(T, N, quotient):
    """The table of quotient = `quotient_group(T.group, N)` inflated from T,
    with the row of T each of its rows inflates: (table, inflates).  The
    values stay in T's field."""
    G = T.group
    Q, proj = quotient
    reps = [proj.index(min(b)) for b in conjugacy_classes(Q).blocks]
    e = T.exponent
    rows = {
        t: tuple(T.value_at_element(t, g) for g in reps)
        for t in range(len(T.values))
        if not N.mask & ~T.char_kernel(t).mask
    }
    inflates = sorted(rows, key=lambda t: _canonical_row_key(rows[t]))
    table = CharacterTable(Q, [rows[t] for t in inflates], e)
    report = CheckReport(f"character table of {Q.label}, inflated from {G.label}")
    report.add("shape", len(rows) == table.n_classes, f"{len(rows)} rows for {table.n_classes} classes")
    report.add(
        "degree-sum",
        sum(d * d for d in table.degrees) == Q.order,
        f"sum of squared degrees = {sum(d * d for d in table.degrees)}, |G/N| = {Q.order}",
    )
    one = Cyclotomic.one(e)
    report.add("principal-row", all(v == one for v in table.values[0]))
    if not report.ok:
        raise ConsistencyError(
            "inflation produced an invalid quotient table: "
            + "; ".join(c.name for c in report.failures)
        )
    table.validation = report
    return table, tuple(inflates)


def deflation(S, N, quotient, inflated):
    """S^{G/N} on quotient = `quotient_group(S.group, N)` and its inflated
    table, inflated = (table, inflates) from `quotient_character_table`:
    the parts of S inside Irr(G/N) renumbered by the rows they inflate to,
    the images of its superclasses, and its values at preimages, in the
    field of S, with only the counts checked."""
    require_s_normal(S, N)
    Q, proj = quotient
    table, inflates = inflated
    row_of = {t: i for i, t in enumerate(inflates)}
    inside = [xi for xi, part in enumerate(S.xparts) if row_of.keys() >= part]
    images = {}
    for yi, b in enumerate(S.yparts.blocks):
        images.setdefault(frozenset(proj[g] for g in b), yi)
    try:
        yparts = ElementPartition(Q.order, images)
    except GroupConstructionError as exc:
        raise ConsistencyError("projected superclasses do not form a partition") from exc
    if len(inside) != len(yparts) or sum(len(S.xparts[xi]) for xi in inside) != len(row_of):
        raise ConsistencyError("the parts inside Irr(G/N) do not match the projected superclasses")
    inside.sort(key=lambda xi: min(row_of[t] for t in S.xparts[xi]))
    block_of = conjugacy_classes(Q).block_of
    return SuperTheory(
        table,
        tuple(frozenset(row_of[t] for t in S.xparts[xi]) for xi in inside),
        yparts,
        tuple(tuple(sorted({block_of[x] for x in b})) for b in yparts.blocks),
        tuple(tuple(S.sigma[xi][images[b]] for b in yparts.blocks) for xi in inside),
    )
