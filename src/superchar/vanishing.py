"""Vanishing-off subgroups, Camina conditions, U(S|N), and VZ theories.

The predicates here (Camina elements/pairs/triples, generalized Camina
pairs, VZ) each admit several equivalent characterizations.  Every
characterization is evaluated independently and packaged into a
CaminaVerdict; nothing is derived from another condition, so a verdict
with disagreeing conditions is a genuine counterexample to the theorem it
encodes, never a shortcut artifact.
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
    quotient_image,
    subgroup_product,
)
from .reports import CheckReport
from .structure import (
    SeriesResult,
    commutator_series,
    irr_over,
    is_s_abelian,
    lower_series,
    s_center,
    s_commutator_full,
    s_nilpotence_class,
    s_normal_subgroups,
    super_kernel,
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

    `checks` lists each independently evaluated equivalent condition once,
    as (name, holds, witness); `conditions` maps the names to their truth
    values and `agreement` is True when they all coincide.  One rule gives
    the `witnesses`: those of exactly the false conditions, where a
    condition has one (None where it has not).  `extras` carries evaluated
    but non-asserted readings.  The subject and each witness are
    zero-argument callables that give the text, and do any work only the
    text needs; `to_json` alone calls them, so a verdict that is never
    shown formats nothing.
    """

    __slots__ = ("subject", "holds", "conditions", "agreement", "vacuous", "witnesses", "extras")

    def __init__(self, subject, holds: bool, checks, vacuous: bool = False, extras: dict | None = None):
        self.subject, self.holds, self.vacuous = subject, holds, vacuous
        self.conditions, self.witnesses = {}, {}
        for name, ok, witness in checks:
            self.conditions[name] = ok
            if not ok and witness is not None:
                self.witnesses[name] = witness
        self.agreement = len(set(self.conditions.values())) == 1
        self.extras = {} if extras is None else extras

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
        if self.extras:
            out["extras"] = {k: str(v) for k, v in self.extras.items()}
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
    the elements where some member of Irr(S|H) is nonzero, checked S-normal
    and containing H."""
    table = {}
    for H in s_normal_subgroups(S):
        gens = reduce(or_, map(nonvanishing_mask, irr_over(S, H)), 0)
        V = table[H.mask] = normal_closure(S.group, gens)
        if not S.is_s_normal(V):
            raise ConsistencyError("V(S|N) is not S-normal")
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
def _differences(S: SuperTheory) -> tuple[int, ...]:
    """The mask of g^-1 Cl_S(g) for each element g, the differences a
    transversal test needs."""
    G = S.group
    return tuple(element_mask(G.mul[G.inv[g]][y] for y in S.superclass(g)) for g in range(G.order))


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

    return CaminaVerdict(lambda: f"element {g}", vanishing, [
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
    transversal forms evaluated independently.

    The coset-product form is asserted in the reading "every superclass
    outside N is a union of [G,S]-cosets", available when [G,S] <= N; the
    literal "over N and [G,S]" reading is recorded in `extras` and only
    asserted when N = [G,S], where the two coincide.
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
    extras: dict[str, object] = {}
    if N.members <= com.members:
        extras["coset-product-literal"] = is_delta_product(S, N, com)
        if N is com:
            checks.append(("coset-product-literal", extras["coset-product-literal"], None))
    return CaminaVerdict(lambda: f"pair (G, {sorted(N.members)})", holds, checks, len(N) == S.group.order, extras)


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

    return CaminaVerdict(lambda: f"triple (G, {sorted(N.members)}, {sorted(M.members)})", bad is None, [
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
    the trivial subgroup), so there it is recorded but not asserted.
    """
    require_s_normal(S, N)
    bad = non_coset_union(S, N, N)
    nonzero = reduce(or_, map(nonvanishing_mask, irr_over(S, N)), 0)
    clause_a, clause_b = not nonzero & ~N.mask, not N.mask & ~nonzero
    checks = [
        ("coset-union", bad is None, lambda: f"superclass {sorted(bad)} is not a union of N-cosets"),
        ("construction", star_construct(S, N) is S, lambda: "the star construction over N differs from S"),
        ("vanishing-off", v_rel(S, N) is N, lambda: f"V(S|N) = {sorted(v_rel(S, N).members)}"),
    ]
    extras: dict[str, object] = {}
    if len(N) > 1:
        checks.append(("two-clause", clause_a and clause_b, lambda: f"clause a: {clause_a}, clause b: {clause_b}"))
    else:
        extras["two-clause-at-trivial-n"] = clause_a and clause_b
    return CaminaVerdict(
        lambda: f"pair (G, {sorted(N.members)})", bad is None, checks, len(N) == S.group.order, extras
    )


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
    containment U(S|N) <= N n [G,S] for non-S-abelian theories therefore
    holds (and is verified) only for proper N.
    """
    require_s_normal(S, N)
    below = (h for h, V in _v_table(S).items() if not V.mask & ~N.mask)
    total = normal_closure(S.group, reduce(or_, below, 0))
    if not S.is_s_normal(total):
        raise ConsistencyError("U(S|N) is not S-normal")
    if not is_s_abelian(S) and len(N) < S.group.order:
        cap = N.members & s_commutator_full(S).members
        if not total.members <= cap:
            raise ConsistencyError("U(S|N) escapes N n [G,S]")
    return total


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
    """U(S) = U(S|Z(S)); the whole group when the theory is S-abelian.
    For non-S-abelian theories the chain
    U(S) <= [G,S] n Z(S) <= [G,S]Z(S) <= V(S) is verified."""
    if is_s_abelian(S):
        return full_subgroup(S.group)
    center = s_center(S)
    U = u_rel(S, center)
    com = s_commutator_full(S)
    meet = com.members & center.members
    join = subgroup_product(S.group, com, center)
    V = v_theory(S)
    if not (U.members <= meet and join.members <= V.members):
        raise ConsistencyError("U(S) <= [G,S] n Z(S) <= [G,S]Z(S) <= V(S) fails")
    return U


def u_quotient_check(S: SuperTheory, N: SubgroupSet, H: SubgroupSet) -> list[str]:
    """The failing details of U(S^{G/N} | H/N) = U(S|H)/N, checked under
    the hypothesis V(S|N) <= H: empty when it holds or the hypothesis
    fails (not applicable)."""
    require_s_normal(S, N)
    require_s_normal(S, H)
    if not v_rel(S, N).members <= H.members:
        return []
    defl = deflation(S, N)
    image_h = quotient_image(S.group, N, H)
    if not defl.is_s_normal(image_h):
        raise ConsistencyError("projected subgroup is not S-normal in the deflation")
    lhs = u_rel(defl, image_h)
    rhs = quotient_image(S.group, N, u_rel(S, H))
    if lhs is rhs:
        return []
    return [f"deflated U = {lhs.sorted_members()}, projected U = {sorted(rhs.members)}"]


def u_kernel_check(S: SuperTheory, N: SubgroupSet) -> tuple[list[str], list[str]]:
    """(failing details, notes) of U(S|N) as the intersection of the
    kernels of the supercharacters whose vanishing-off subgroup escapes N;
    an empty family means the intersection is all of G, and says so in a
    note."""
    require_s_normal(S, N)
    family = [
        sigma for sigma in S.supercharacters() if not vanish_off(sigma).members <= N.members
    ]
    notes = [] if family else ["the character family is empty; the intersection defaults to G"]
    intersection = frozenset(range(S.group.order)).intersection(*(super_kernel(s).members for s in family))
    U = u_rel(S, N)
    if intersection == U.members:
        return [], notes
    return [f"intersection {sorted(intersection)}, U(S|N) {U.sorted_members()}"], notes


# ---------------------------------------------------------------------------
# VZ theories


@cached
def is_vz(S: SuperTheory) -> CaminaVerdict:
    """VZ: every supercharacter over [G,S] vanishes off Z(S).

    For non-S-abelian theories this is asserted equivalent to
    V(S) <= Z(S), Z(S) = V(S), and U(S) = [G,S]; when additionally
    [G,S] <= Z(S), the coset-product, class-size and transversal forms of
    the Camina triple (G, Z(S), [G,S]) join the asserted set.
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
    if not is_s_abelian(S):
        U = u_theory(S)
        checks += [
            ("center-equals-v", center is V, None),
            ("u-equals-commutator", U is com, lambda: f"U(S) = {sorted(U.members)}, [G,S] = {sorted(com.members)}"),
        ]
    if com.members <= center.members:
        triple = is_camina_triple(S, center, com).conditions
        checks += [
            ("coset-product", triple["coset-union"], None),
            ("class-size-product", triple["class-size-product"], None),
            ("transversal", triple["transversal"], None),
        ]
    return CaminaVerdict(lambda: "VZ", escaping is None, checks, len(center) == S.group.order)


def scd_check(S: SuperTheory) -> CheckReport:
    """Supercharacter degrees of a non-S-abelian VZ theory: every part over
    [G,S] satisfies sigma(1)^2 = ||X||^2 |G : Z(S)| (exact integers), its
    values on Z(S) have |sigma(z)| = sigma(1), and the degree set is
    {1} u {|G : Z(S)|}."""
    rep = CheckReport(f"supercharacter degrees for a theory of {S.group.label}")
    if is_s_abelian(S) or not is_vz(S).holds:
        rep.note("not a non-S-abelian VZ theory; not applicable")
        return rep
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


def v_series_checks(S: SuperTheory) -> list[str]:
    """The names of the failing checks of the V-series against the lower
    central series: interleaving, strictness propagation, and the
    deflated-series identity with its nilpotence-class claim."""
    vs = v_series(S)
    low = lower_series(S)
    top = max(len(vs.terms), len(low.terms)) + 1
    fails = [
        f"interleaving-{i}"
        for i in range(1, top + 1)
        if not low.term(i + 1).members <= vs.term(i).members <= low.term(i).members
    ]
    strict = [i for i in range(1, top + 1) if len(vs.term(i)) < len(low.term(i))]
    if strict and not all(len(vs.term(i)) < len(low.term(i)) for i in range(1, max(strict) + 1)):
        fails.append("strictness-propagation")
    for n in range(1, top + 1):
        vn = vs.term(n)
        if not len(vn) < len(low.term(n)):
            continue
        defl = deflation(S, vn)
        if s_nilpotence_class(defl) != n:
            fails.append(f"deflated-class-{n}")
        dvs = v_series(defl)
        fails += [
            f"deflated-v-{n}-{i}"
            for i in range(1, n + 1)
            if dvs.term(i) is not quotient_image(S.group, vn, vs.term(i))
        ]
    return fails
