"""Vanishing-off subgroups, Camina conditions, U(S|N), and VZ theories.

The predicates here (Camina elements/pairs/triples, generalized Camina
pairs, VZ) each admit several equivalent characterizations.  Every
characterization is evaluated independently and packaged into a
CaminaVerdict; nothing is derived from another condition, so a verdict
with disagreeing conditions is a genuine counterexample to the theorem it
encodes, never a shortcut artifact.  A verdict holds the conditions of
one theorem and no others: a reading no theorem asserts is not computed,
and an identity another theorem states is left to that theorem's checker.

The builders of V(S|N), U(S|N) and their series compute values only:
each theorem about them is evaluated by its checker in `verifier`.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import ConsistencyError
from .groups import (
    SubgroupSet,
    cached,
    coset_masks,
    element_mask,
    full_subgroup,
    normal_closure,
    quotient_group,
)
from .reports import CheckReport
from .structure import (
    SeriesResult,
    _differences,
    commutator_series,
    irr_over,
    is_s_abelian,
    s_center,
    s_commutator_full,
    s_normal_subgroups,
)
from .supertheory import (
    SuperCharacter,
    SuperTheory,
    deflation,
    is_delta_product,
    non_coset_union,
    require_s_normal,
    star_construct,
)


class CaminaVerdict:
    """Outcome of a multi-characterization predicate.

    `checks` lists, as (name, holds, witness), the conditions that one
    theorem asserts equivalent, each evaluated once and independently, the
    defining one first: `holds` is its value.  `conditions` maps the names
    to their truth values and `agreement` is True when they all coincide.
    One rule gives the `witnesses`: those of exactly the false conditions,
    where a condition has one (None where it has not).  The subject and
    each witness are zero-argument callables that give the text, and do
    any work only the text needs; `to_json` alone calls them, so a verdict
    that is never shown formats nothing.
    """

    __slots__ = ("subject", "holds", "conditions", "agreement", "vacuous", "witnesses")

    def __init__(self, subject, checks, vacuous: bool = False):
        self.subject, self.vacuous = subject, vacuous
        self.conditions, self.witnesses = {}, {}
        for name, ok, witness in checks:
            self.conditions[name] = ok
            if not ok and witness is not None:
                self.witnesses[name] = witness
        self.holds = checks[0][1]
        self.agreement = len(set(self.conditions.values())) == 1

    def to_json(self):
        out = {
            "subject": self.subject(),
            "holds": self.holds,
            "agreement": self.agreement,
            "conditions": dict(self.conditions),
        }
        if self.vacuous:
            out["vacuous"] = True
        if self.witnesses:
            out["witnesses"] = {k: text() for k, text in self.witnesses.items()}
        return out


# ---------------------------------------------------------------------------
# vanishing-off subgroups


@cached
def nonvanishing_mask(sigma: SuperCharacter) -> int:
    """The elements where sigma is nonzero (exact test), as a bitmask."""
    return sum(m for m, v in zip(sigma.theory.block_masks(), sigma.values) if not v.is_zero())


def escaping_character(sigmas, N: SubgroupSet) -> SuperCharacter | None:
    """The first of sigmas that is nonzero somewhere outside N, or None
    when all of them vanish off N."""
    return next((sigma for sigma in sigmas if nonvanishing_mask(sigma) & ~N.mask), None)


@cached
def vanish_off(sigma: SuperCharacter) -> SubgroupSet:
    """V(sigma): the subgroup generated by the nonvanishing set, i.e. the
    smallest subgroup off which sigma vanishes: a union of superclasses, so
    its closure in the normal-subgroup lattice."""
    return normal_closure(sigma.theory.group, nonvanishing_mask(sigma))


@cached
def _v_table(S: SuperTheory) -> dict[int, SubgroupSet]:
    """V(S|H) for every S-normal H, keyed by the mask of H: the closure of
    the elements where some member of Irr(S|H) is nonzero, checked to
    contain H: no theorem states it, and it keeps U(S|N) inside N, so
    `u_chain` descends.  That it is S-normal is P-prop42's conclusion."""
    table = {}
    for H in s_normal_subgroups(S):
        gens = reduce(or_, map(nonvanishing_mask, irr_over(S, H)), 0)
        V = table[H.mask] = normal_closure(S.group, gens)
        if H.mask & ~V.mask:
            raise ConsistencyError("V(S|N) does not contain N")
    return table


@cached
def v_rel(S: SuperTheory, N: SubgroupSet) -> SubgroupSet:
    """V(S|N): generated by the elements where some member of Irr(S|N) is
    nonzero.  S-normal, and contains N (trivially {1} when Irr(S|N) is
    empty, which happens exactly at N = 1)."""
    require_s_normal(S, N)
    return _v_table(S)[N.mask]


def v_theory(S: SuperTheory) -> SubgroupSet:
    """V(S) = V(S|[G,S]); every sigma over [G,S] vanishes off it by
    construction of the generating set."""
    return v_rel(S, s_commutator_full(S))


# ---------------------------------------------------------------------------
# Camina conditions


def _first_miss(S: SuperTheory, N: SubgroupSet, holds: int) -> int | None:
    """The least element outside N that is not in the mask holds, or None."""
    miss = ~(holds | N.mask) & ((1 << S.group.order) - 1)
    return (miss & -miss).bit_length() - 1 if miss else None


@cached
def camina_masks(S: SuperTheory) -> tuple[int, int, int, int]:
    """The elements g at which each characterization of an S-Camina element
    holds, as masks (vanishing, class-coset, class-size, transversal): every
    member of Irr(S|[G,S]) is 0 at g; Cl_S(g) = g[G,S]; |Cl_S(g)| = |[G,S]|;
    and g^-1 Cl_S(g) holds every element of [G,S].  Each is read off its own
    definition, the first from the supercharacter values on each superclass."""
    G, com = S.group, s_commutator_full(S)
    over, blocks, block_of = irr_over(S, com), S.block_masks(), S.yparts.block_of
    vanishing = sum(m for k, m in enumerate(blocks) if all(sigma.values[k].is_zero() for sigma in over))
    cosets = coset_masks(G, com)
    coset = element_mask(g for g in range(G.order) if blocks[block_of[g]] == cosets[g])
    size = sum(m for m, b in zip(blocks, S.yparts.blocks) if len(b) == len(com))
    transversal = element_mask(g for g, d in enumerate(_differences(S)) if not com.mask & ~d)
    return vanishing, coset, size, transversal


def is_camina_element(S: SuperTheory, g: int) -> CaminaVerdict:
    """Four independent characterizations of an S-Camina element, the bits
    of g in `camina_masks`: all of Irr(S|[G,S]) vanish at g;
    Cl_S(g) = g[G,S]; |Cl_S(g)| = |[G,S]|; and every commutator-coset
    difference is realized inside Cl_S(g)."""
    com = s_commutator_full(S)
    cls = S.superclass(g)
    vanishing, coset, size, transversal = (bool(m >> g & 1) for m in camina_masks(S))

    def nonzero():
        sigma = next(sigma for sigma in irr_over(S, com) if not sigma.value_on(g).is_zero())
        return f"sigma_{sigma.index}(g) = {sigma.value_on(g)}"

    def missing():
        miss = com.mask & ~_differences(S)[g]
        return f"no y in Cl_S({g}) with g^-1 y = {(miss & -miss).bit_length() - 1}"

    def coset_text():
        return f"Cl_S({g}) = {sorted(cls)}, g[G,S] = {sorted(S.group.mul[g][z] for z in com.members)}"

    return CaminaVerdict(lambda: f"element {g}", [
        ("vanishing", vanishing, nonzero),
        ("class-coset", coset, coset_text),
        ("class-size", size, lambda: f"|Cl_S({g})| = {len(cls)}, |[G,S]| = {len(com)}"),
        ("transversal", transversal, missing),
    ])


def gcp_holds(S: SuperTheory, N: SubgroupSet) -> bool:
    """(G, N) is a generalized S-Camina pair: every element outside N is an
    S-Camina element.  This is `is_s_gcp(S, N).holds`, without the other
    conditions."""
    require_s_normal(S, N)
    return _first_miss(S, N, camina_masks(S)[0]) is None


def is_s_gcp(S: SuperTheory, N: SubgroupSet) -> CaminaVerdict:
    """Generalized S-Camina pair (G, N): every element outside N is an
    S-Camina element, with the equivalent vanishing, class-size and
    transversal forms evaluated independently (T-corgcp).

    The coset-product form is asserted in the reading "every superclass
    outside N is a union of [G,S]-cosets", available when [G,S] <= N; the
    literal "over N and [G,S]" reading is asserted, and evaluated, only at
    N = [G,S], where the two coincide.
    """
    holds = gcp_holds(S, N)
    com = s_commutator_full(S)
    vanishing, _, size, transversal = camina_masks(S)
    wrong_size = _first_miss(S, N, size)
    short = _first_miss(S, N, transversal)
    escaping = escaping_character(irr_over(S, com), N)
    checks = [
        ("camina-elements", holds, lambda: f"element {_first_miss(S, N, vanishing)} is not an S-Camina element"),
        ("class-sizes", wrong_size is None,
         lambda: f"|Cl_S({wrong_size})| = {len(S.superclass(wrong_size))} != {len(com)}"),
        ("transversal", short is None, lambda: f"element {short} misses a commutator-coset difference"),
        ("vanishing", escaping is None, lambda: f"sigma_{escaping.index} does not vanish off N"),
    ]
    if com.members <= N.members:
        checks.append(("coset-product", is_delta_product(S, com, N),
                       lambda: "some superclass outside N is not a union of [G,S]-cosets"))
    if N is com:
        checks.append(("coset-product-literal", is_delta_product(S, N, com), None))
    return CaminaVerdict(lambda: f"pair (G, {sorted(N.members)})", checks, len(N) == S.group.order)


@cached
def _triple_masks(S: SuperTheory, M: SubgroupSet) -> tuple[int, int]:
    """The elements g with |Cl_S(g)| = |M| times the size of the superclass
    of gM in S^{G/M}, and those with M inside g^-1 Cl_S(g), as masks."""
    defl = deflation(S, M)
    _, proj = quotient_group(S.group, M)
    sizes, block_of = S.block_sizes(), S.yparts.block_of
    quotient_sizes, quotient_block_of = defl.block_sizes(), defl.yparts.block_of
    size = element_mask(
        g for g, b in enumerate(block_of) if sizes[b] == quotient_sizes[quotient_block_of[proj[g]]] * len(M)
    )
    transversal = element_mask(g for g, d in enumerate(_differences(S)) if not M.mask & ~d)
    return size, transversal


def is_camina_triple(S: SuperTheory, N: SubgroupSet, M: SubgroupSet) -> CaminaVerdict:
    """S-Camina triple (G, N, M) with M <= N: five independent conditions,
    led by the defining one (superclasses outside N are unions of
    M-cosets)."""
    require_s_normal(S, N)
    require_s_normal(S, M)
    bad = non_coset_union(S, M, N)
    size, transversal = _triple_masks(S, M)
    wrong_size = _first_miss(S, N, size)
    short = _first_miss(S, N, transversal)
    escaping = escaping_character(irr_over(S, M), N)

    def deflated_size():
        _, proj = quotient_group(S.group, M)
        return (
            f"|Cl_S({wrong_size})| = {len(S.superclass(wrong_size))}, deflated class times |M| = "
            f"{len(deflation(S, M).superclass(proj[wrong_size])) * len(M)}"
        )

    return CaminaVerdict(lambda: f"triple (G, {sorted(N.members)}, {sorted(M.members)})", [
        ("coset-union", bad is None, lambda: f"superclass {sorted(bad)} is not a union of M-cosets"),
        ("class-size-product", wrong_size is None, deflated_size),
        ("transversal", short is None, lambda: f"element {short} misses an M-difference"),
        ("vanishing-bound", v_rel(S, M).members <= N.members,
         lambda: f"V(S|M) = {sorted(v_rel(S, M).members)} escapes {sorted(N.members)}"),
        ("vanishing", escaping is None, lambda: f"sigma_{escaping.index} does not vanish outside N"),
    ], len(N) == S.group.order)


def is_camina_pair(S: SuperTheory, N: SubgroupSet) -> CaminaVerdict:
    """S-Camina pair (G, N): the coset-product condition of
    `is_delta_product` at M = N, the star construction actually reproducing
    S, V(S|N) = N, and the two-clause character condition, both of its
    clauses read off where some member of Irr(S|N) is nonzero.

    The two-clause condition degenerates at N = 1 (no character lies over
    the trivial subgroup), so there it is neither asserted nor evaluated.
    """
    require_s_normal(S, N)
    bad = non_coset_union(S, N, N)
    checks = [
        ("coset-union", bad is None, lambda: f"superclass {sorted(bad)} is not a union of N-cosets"),
        ("construction", star_construct(S, N) is S, lambda: "the star construction over N differs from S"),
        ("vanishing-off", v_rel(S, N) is N, lambda: f"V(S|N) = {sorted(v_rel(S, N).members)}"),
    ]
    if len(N) > 1:
        nonzero = reduce(or_, map(nonvanishing_mask, irr_over(S, N)), 0)
        clause_a, clause_b = not nonzero & ~N.mask, not N.mask & ~nonzero
        checks.append(("two-clause", clause_a and clause_b, lambda: f"clause a: {clause_a}, clause b: {clause_b}"))
    return CaminaVerdict(lambda: f"pair (G, {sorted(N.members)})", checks, len(N) == S.group.order)


# ---------------------------------------------------------------------------
# the V- and U-series


@cached
def v_series(S: SuperTheory) -> SeriesResult:
    """V_1 = V(S), V_i = [V_{i-1}, S], until stabilization."""
    return commutator_series(S, v_theory(S), "v-series")


@cached
def u_rel(S: SuperTheory, N: SubgroupSet) -> SubgroupSet:
    """U(S|N): the product of every S-normal H with V(S|H) <= N, their
    join in the lattice, read off the theory's table of V(S|H).

    By the definition this includes H = G when N = G, so U(S|G) = G; the
    containment U(S|N) <= N n [G,S] for non-S-abelian theories (L-ucap)
    therefore claims only proper N.  That U(S|N) is S-normal is L-unormal.
    """
    require_s_normal(S, N)
    below = (h for h, V in _v_table(S).items() if not V.mask & ~N.mask)
    return normal_closure(S.group, reduce(or_, below, 0))


def u_chain(S: SuperTheory, N: SubgroupSet) -> SeriesResult:
    """U^1 = U(S|N), U^i = U(S|U^{i-1}), until stabilization."""
    require_s_normal(S, N)
    terms = [u_rel(S, N)]
    while True:
        nxt = u_rel(S, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return SeriesResult("u-chain", tuple(terms), 1)


def u_theory(S: SuperTheory) -> SubgroupSet:
    """U(S) = U(S|Z(S)); the whole group when the theory is S-abelian.  For
    non-S-abelian theories U(S) <= [G,S] n Z(S) is L-ucap at N = Z(S), and
    [G,S]Z(S) <= V(S) is L-vs."""
    return full_subgroup(S.group) if is_s_abelian(S) else u_rel(S, s_center(S))


# ---------------------------------------------------------------------------
# VZ theories


@cached
def is_vz(S: SuperTheory) -> CaminaVerdict:
    """VZ: every supercharacter over [G,S] vanishes off Z(S).

    L-vzs asserts this equivalent to V(S) <= Z(S) and, when
    [G,S] <= Z(S), to the coset-product, class-size and transversal forms
    of the Camina triple (G, Z(S), [G,S]).  That it is equivalent to
    Z(S) = V(S) and to U(S) = [G,S] is T-final's, evaluated there.
    """
    center = s_center(S)
    com = s_commutator_full(S)
    V = v_theory(S)
    escaping = escaping_character(irr_over(S, com), center)
    checks = [
        ("definition", escaping is None, lambda: f"sigma_{escaping.index} does not vanish off Z(S)"),
        ("v-inside-center", V.members <= center.members,
         lambda: f"V(S) = {sorted(V.members)}, Z(S) = {sorted(center.members)}"),
    ]
    if com.members <= center.members:
        size, transversal = _triple_masks(S, com)
        checks += [
            ("coset-product", non_coset_union(S, com, center) is None, None),
            ("class-size-product", _first_miss(S, center, size) is None, None),
            ("transversal", _first_miss(S, center, transversal) is None, None),
        ]
    return CaminaVerdict(lambda: "VZ", checks, len(center) == S.group.order)


def scd_check(S: SuperTheory) -> CheckReport:
    """Supercharacter degrees, the conclusion of L-scd for a non-S-abelian
    VZ theory: every part over [G,S] satisfies sigma(1)^2 = ||X||^2
    |G : Z(S)| (exact integers), its values on Z(S) have |sigma(z)| =
    sigma(1), and the degree set is {1} u {|G : Z(S)|}.  Its checks are
    made on any theory; the hypothesis is the caller's."""
    rep = CheckReport(f"supercharacter degrees for a theory of {S.group.label}")
    center = s_center(S)
    com = s_commutator_full(S)
    index = S.group.order // len(center)
    nonlinear = irr_over(S, com)
    for sigma in nonlinear:
        norm2 = sum(S.table.degrees[t] ** 2 for t in sigma.part)
        rep.add(
            f"degree-sigma-{sigma.index}",
            sigma.degree**2 == norm2 * index,
            f"sigma(1)^2 = {sigma.degree ** 2}, ||X||^2 |G:Z(S)| = {norm2 * index}",
        )
        for z in sorted(center.members):
            value = sigma.value_on(z)
            rep.add(
                f"central-modulus-sigma-{sigma.index}-z{z}",
                value * value.conjugate() == sigma.degree**2,
                f"|sigma({z})|^2 != sigma(1)^2",
            )
    degree_set = {sigma.degree for sigma in S.supercharacters()}
    expected = {1} | {index for _ in nonlinear}
    rep.add(
        "degree-set",
        degree_set == expected,
        f"scd(S) = {sorted(degree_set)}, expected {sorted(expected)}",
    )
    return rep
