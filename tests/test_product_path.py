"""The product path builds no throwaway machine, checked against the code
that built one.

- `fsa.pruned_from_raw` trims a search result from its raw lists, so an
  open product (`interpret.intersect_open`) and a lazy materialization
  build one `Fsa`, or only the canonical empty machine. ``ref_pruned``
  below is the construction it replaced: the whole machine built with
  `Fsa.from_raw`, then pruned by the backward pass of ``ref_prune``, a
  copy of the former `fsa.prune`. The two must agree exactly (state count,
  start, finals, the raw arc sequence and the trim mark) on products of
  random machines, and on every open product and lazy materialization of
  the parameterless shipped entries.
- A parse's product enters only live pairs, so it is trim as it comes and
  is not cut at all. ``ref_open_product`` below is the open product a
  parse ran before: pruned, it must equal the parse's product exactly on
  2,000 seeded queries against the seed-1 400-stem Koasati wordform, in a
  pass from a cold memo and again from the warm one, and
  `test_live_pairs` checks it further.
- `interpret.prepare_parse_input` builds the chain's arcs and marks it
  with its token labels, and nothing else.
- `fsa._subset_construct` keys a label that is an atom by itself and
  splits only a label of several atoms; ``ref_subset_construct`` below is
  the version that looked every label's atoms up by index.
- The evaluator returns an enrichment's operand as it is when the operand
  has no finals, so a rejected Koasati stem costs no enrichment.

A parse then builds exactly two machines when accepted for the first
time and only the chain otherwise, and a 400-stem compile fewer than
1,950. The hypothesis tests here set no example count of their own,
so a profile registered in ``conftest.py`` can run them longer.
"""

from functools import lru_cache
from itertools import compress
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import _kernel, fsa, interpret, lazy
from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.compiler import _ENRICH_FN
from redup.enrich import add_self_loops
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    determinize,
    is_empty,
    minimize,
    never_fsa,
    pruned_from_raw,
    trim,
)
from redup.interpret import ProductStats, close, intersect_open, prepare_parse_input
from redup.lazy import lazy_intersect, lazy_wrap, materialize
from test_koasati_oracle import compile_lexicon, koasati
from test_representation import EVERY_PAIR, random_fsa

# -- the versions replaced ----------------------------------------------------------


def ref_prune(a):
    """The former `fsa.prune`: the backward pass over `a`'s arcs, then `a` cut
    down to the states it marks, or `a` itself marked if none is cut."""
    if a._trim:
        return a
    if not a.finals:
        return a if a.n == 1 and not a.raw_arcs else never_fsa(a.alphabet)
    n, start, finals, raw = a.n, a.start, a.finals, a.raw_arcs
    inc = [[] for _ in range(n)]
    for s, d, _b, _pc in raw:
        inc[d].append(s)
    stack = list(finals)
    keep = bytearray(n)
    for q in stack:
        keep[q] = 1
    while stack:
        for s in inc[stack.pop()]:
            if not keep[s]:
                keep[s] = 1
                stack.append(s)
    if not keep[start]:
        return never_fsa(a.alphabet)
    kept = keep.count(1)
    if kept == n:
        fsa._set_trim(a, True)
        return a
    remap = [-1] * n
    for i, q in enumerate(compress(range(n), keep)):
        remap[q] = i
    arcs = tuple((remap[s], remap[d], b, pc) for s, d, b, pc in raw
                 if remap[s] >= 0 and remap[d] >= 0)
    return fsa._NewFsa(a.alphabet, kept, remap[start],
                       frozenset(remap[q] for q in finals if keep[q]), arcs, trim=True)


def ref_pruned(alphabet, n, start, finals, arcs):
    """A search result as it was trimmed: built whole first, then pruned."""
    return ref_prune(Fsa.from_raw(alphabet, n, start, frozenset(finals), tuple(arcs)))


def ref_open_product(a, b):
    """The open product as a parse ran it before its pairs were tested for
    liveness: every pair reached over arc pairs whose labels overlap, but
    for the dead ends, whose two states' out-labels do not overlap and are
    not both final. Returns (n, start, finals, arcs, entered) as
    `_kernel.product` does."""
    out_a, out_b, bits_a, bits_b = a.out_raw(), b.out_raw(), a.out_bits(), b.out_bits()
    ids = {(a.start, b.start): 0}
    todo, finals, arcs = [(a.start, b.start)], [], []
    while todo:
        qa, qb = pair = todo.pop()
        if qa in a.finals and qb in b.finals:
            finals.append(ids[pair])
        for _sa, da, ba, pa in out_a[qa]:
            for _sb, db, bb, pb in out_b[qb]:
                if ba & bb:
                    if (da, db) not in ids:
                        if not (bits_a[da] & bits_b[db] or da in a.finals and db in b.finals):
                            continue
                        ids[da, db] = len(ids)
                        todo.append((da, db))
                    arcs.append((ids[pair], ids[da, db], ba & bb, pa or pb))
    return len(ids), 0, finals, arcs, len(ids)


def ref_subset_construct(by_src, initial, accepting, atoms):
    """`fsa._subset_construct` as it was: every label split into the
    indices of its atoms."""
    atoms_of = {}
    states = {initial: 0}
    todo = [initial]
    out_arcs = []
    finals = set()
    while todo:
        subset = todo.pop()
        sid = states[subset]
        if subset & accepting:
            finals.add(sid)
        moves = {}
        for q in subset:
            for _s, dst, bits, pc in by_src[q]:
                idx = atoms_of.get(bits)
                if idx is None:
                    idx = atoms_of[bits] = [i for i, atom in enumerate(atoms) if atom & bits]
                for i in idx:
                    moves.setdefault((i, pc), set()).add(dst)
        regroup = {}
        for (i, pc), targets in moves.items():
            key = (frozenset(targets), pc)
            regroup[key] = regroup.get(key, 0) | atoms[i]
        for (targets, pc), bits in sorted(regroup.items(), key=lambda kv: (kv[1], kv[0][1])):
            if targets not in states:
                states[targets] = len(states)
                todo.append(targets)
            out_arcs.append((sid, states[targets], bits, pc))
    return len(states), 0, frozenset(finals), tuple(out_arcs)


# -- helpers ---------------------------------------------------------------------------


def memo_records(m):
    """Every record of `m`'s live memo: S_n, and one live set per step.
    The record under None also holds the in-adjacency, the table of
    distinct sets, the kept accepted products and the empty machine of
    rejected ones, which are no step records."""
    memo = m.live_memo()
    return [memo[None].last] + [record for key, record in memo.items() if key is not None]


def identical(got, want):
    assert (got.n, got.start, got.finals, got.raw_arcs, got._trim) == (
        want.n, want.start, want.finals, want.raw_arcs, want._trim)


def checked(module):
    """Patch `module.pruned_from_raw` to check every call against
    ``ref_pruned``; yields the list of the machines it returned."""
    built = []

    def both(alphabet, n, start, finals, arcs):
        want = ref_pruned(alphabet, n, start, finals, arcs)
        got = fsa.pruned_from_raw(alphabet, n, start, finals, arcs)
        identical(got, want)
        built.append(got)
        return got

    return mock.patch.object(module, "pruned_from_raw", both), built


def counting_constructions():
    """Patch `fsa._NewFsa.__init__`, through which every `Fsa` is built;
    yields the list it appends one entry to per construction."""
    built = []
    real = fsa._NewFsa.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    return mock.patch.object(fsa._NewFsa, "__init__", counting), built


@lru_cache(maxsize=None)
def shipped_entries():
    return [(g, name) for g in GRAMMAR_NAMES
            for name, macro in load_grammar(g).macros.items() if not macro.params]


@lru_cache(maxsize=None)
def lexicon(count):
    """The seed-1 Koasati grammar of `count` stems, its wordform and its
    accepted forms."""
    stems = koasati.stems(1, count)
    cg = compile_lexicon(stems)
    return cg, cg.compile(koasati.ENTRY), koasati.lexicon_forms(stems)


# -- the trim builder -------------------------------------------------------------------


@settings(deadline=None)
@given(data=st.data(), closed=st.booleans())
def test_trim_builder_matches_trim_of_the_built_machine(ab, data, closed):
    a, b = random_fsa(ab, data.draw), random_fsa(ab, data.draw)
    n, start, finals, arcs, _entered = _kernel.product(a, b, EVERY_PAIR if closed else None)
    got = pruned_from_raw(ab, n, start, finals, arcs)
    identical(got, ref_pruned(ab, n, start, finals, arcs))
    identical(got, trim(Fsa.from_raw(ab, n, start, frozenset(finals), tuple(arcs))))
    identical(intersect_open(a, b), ref_pruned(ab, *_kernel.product(a, b)[:4]))


@settings(deadline=None)
@given(data=st.data())
def test_trim_builder_on_search_results_with_dead_states(ab, data):
    """A breadth-first numbering of a random machine from its start: every
    state reachable, some dead, finals in any order."""
    m = random_fsa(ab, data.draw)
    out, order = m.out_raw(), [m.start]
    for q in order:
        for _s, d, _b, _pc in out[q]:
            if d not in order:
                order.append(d)
    ids = {q: i for i, q in enumerate(order)}
    arcs = [(ids[s], ids[d], b, pc) for s, d, b, pc in m.raw_arcs if s in ids]
    finals = [ids[q] for q in data.draw(st.permutations(sorted(m.finals))) if q in ids]
    got = pruned_from_raw(ab, len(order), 0, finals, arcs)
    identical(got, ref_pruned(ab, len(order), 0, finals, arcs))
    assert got._trim or (got.n, got.finals, got.raw_arcs) == (1, frozenset(), ())


def test_trim_builder_cuts_nothing_or_builds_only_the_empty_machine(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    arcs = [(0, 1, a_, True), (1, 2, b_, False)]
    patch, built = counting_constructions()
    with patch:
        whole = pruned_from_raw(ab, 3, 0, [2], arcs)
        empty = pruned_from_raw(ab, 3, 0, [], arcs)
        dead_start = pruned_from_raw(ab, 3, 0, [2], arcs[1:])
    assert len(built) == 3
    assert whole._trim and whole.raw_arcs == tuple(arcs) and whole.finals == {2}
    for m in (empty, dead_start):
        assert m == never_fsa(ab) and not m._trim


def test_every_open_product_of_a_shipped_entry_matches():
    patch, built = checked(interpret)
    with patch:
        for grammar, entry in shipped_entries():
            load_grammar(grammar).compile(entry)
    assert len(built) == 86


def test_every_lazy_materialization_of_a_shipped_entry_matches():
    patch, built = checked(lazy)
    with patch:
        for grammar, entry in shipped_entries():
            load_grammar(grammar).compile(entry, engine="lazy")
    assert len(built) == 48
    # a lazy product, which keeps its dead pairs, materialized whole
    cg = load_grammar("koasati")
    m = cg.compile("wordform_lexicon")
    for surface in ("lapatlookin", "lapatlo"):
        chain = prepare_parse_input(cg.alphabet, surface)
        with patch:
            got = materialize(lazy_intersect(lazy_wrap(m), chain))
        assert is_empty(got) == is_empty(intersect_open(m, chain))


def test_parses_of_seeded_queries_match():
    """2,000 queries, half forms and half near misses of them, against the
    seed-1 400-stem wordform, in two passes: the first from a copy whose
    memo starts cold, the second with that memo warm. No accepted product
    is kept, so every query walks back and runs the forward pass
    (`test_parse_table` checks the kept ones). Each open product is the
    reference's pruned, none cut, each entering only the reference's live
    pairs, and each verdict the oracle's. The memo keeps each distinct
    live set as one object, and a step record is its live set alone."""
    cg, m, accepted = lexicon(400)
    m = Fsa.from_raw(m.alphabet, m.n, m.start, m.finals, m.raw_arcs)
    queries = koasati.queries(1, accepted, 2000)
    chains = [prepare_parse_input(cg.alphabet, q) for q in queries]
    wants = [ref_pruned(cg.alphabet, *ref_open_product(m, chain)[:4]) for chain in chains]
    assert m._memo is None
    with mock.patch.object(interpret, "pruned_from_raw", side_effect=AssertionError("cut")), \
            mock.patch.object(_kernel, "_keep_parse"):
        for _pass in range(2):
            stats, verdicts = ProductStats(), []
            for chain, want in zip(chains, wants):
                got = intersect_open(m, chain, stats)
                identical(got, want)
                assert stats.per_call[-1] == (got.n if got.finals else 0)
                verdicts.append(not is_empty(close(got)))
            assert verdicts == [q in accepted for q in queries]
    assert 800 < sum(verdicts) < 1200
    sets = [key[0] for key in m.live_memo() if key is not None]
    sets += memo_records(m)
    assert len({id(live) for live in sets}) == len(set(sets))
    assert all(type(live) is frozenset for live in memo_records(m))


def test_a_parse_builds_two_machines():
    """The chain and the trim product when accepted for the first time,
    and the chain alone otherwise: a repeat returns the product the
    lexicon kept, and every rejected parse the one empty machine of the
    lexicon's memo, built with the memo's first record. `close` of either
    builds nothing."""
    cg, m, accepted = lexicon(400)
    m = Fsa.from_raw(m.alphabet, m.n, m.start, m.finals, m.raw_arcs)
    queries = koasati.queries(5, accepted, 200)
    intersect_open(m, prepare_parse_input(cg.alphabet, queries[0]))
    seen, empties = {queries[0]}, set()
    for q in queries:
        patch, built = counting_constructions()
        with patch:
            got = intersect_open(m, prepare_parse_input(cg.alphabet, q))
            assert close(got) is got
        if q in accepted:
            assert len(built) == (1 if q in seen else 2) and got.finals, q
        else:
            assert len(built) == 1 and got == never_fsa(cg.alphabet), q
            empties.add(id(got))
        seen.add(q)
    assert len(empties) == 1
    firsts = len(seen & accepted)
    assert 10 < firsts < sum(q in accepted for q in queries) - 10


def test_a_lexicon_compile_builds_fewer_machines():
    """2,773 machines in a seed-1 400-stem wordform compile, 1,922 since:
    no open product is built before its cut, and no rejected stem is
    enriched."""
    cg = compile_lexicon(koasati.stems(1, 400))
    patch, built = counting_constructions()
    with patch:
        cg.compile(koasati.ENTRY)
    assert len(built) <= 1950


# -- the parse chain ---------------------------------------------------------------------


@pytest.mark.parametrize("surface", ["", "a", "lapatlookin", "okhoocakkon"])
def test_chain_is_built_with_its_token_labels_only(surface):
    """The chain equals the one the validating constructor builds: a
    consumer arc per token, then a technical loop per state. It carries its
    token labels and no cache."""
    al = load_grammar("koasati").alphabet
    tokens = al.tokenize(surface)
    n = len(tokens)
    want = Fsa(al, n + 1, 0, {n}, [Arc(i, Label(al.char(t), False), i + 1)
                                   for i, t in enumerate(tokens)]
               + [Arc(i, Label(al.tech, False), i) for i in range(n + 1)])
    chain = prepare_parse_input(al, surface)
    assert chain == want and chain.raw_arcs == want.raw_arcs
    assert chain._tokens == [al.char(t) for t in tokens]
    assert (chain._out, chain._bits, chain._memo) == (None, None, None)


# -- subset construction -------------------------------------------------------------------


def checked_subsets():
    """Patch `fsa._subset_construct` to check every call against
    ``ref_subset_construct``; yields the atom and label counts it saw."""
    seen = []
    real = fsa._subset_construct

    def both(by_src, initial, accepting, atoms):
        got = real(by_src, initial, accepting, atoms)
        assert got == ref_subset_construct(by_src, initial, accepting, atoms)
        labels = {b for arcs in by_src for _s, _d, b, _pc in arcs}
        seen.append(len(labels - set(atoms)))
        return got

    return mock.patch.object(fsa, "_subset_construct", both), seen


@settings(deadline=None)
@given(data=st.data())
def test_subset_construction_matches_the_indexed_version(ab, data):
    m = random_fsa(ab, data.draw)
    patch, _seen = checked_subsets()
    with patch:
        determinize(m)
        minimize(m)


def test_subset_construction_splits_labels_of_several_atoms(ab):
    """Labels `a`, `b` and `a|b`: atoms `a` and `b`, and `a|b` split."""
    a_, b_ = ab.char("a"), ab.char("b")
    m = Fsa.from_raw(ab, 3, 0, frozenset({2}), (
        (0, 1, a_ | b_, False), (0, 2, a_, False), (1, 2, b_, False), (1, 1, a_ | b_, True)))
    patch, seen = checked_subsets()
    with patch:
        determinize(m)
        minimize(m)
    assert seen[0] == 1


def test_subset_construction_on_every_shipped_entry():
    patch, seen = checked_subsets()
    with patch:
        for grammar, entry in shipped_entries():
            minimize(load_grammar(grammar).compile(entry))
    assert seen and any(seen) and not all(seen)


class Watched(list):
    """Atoms that count how often they are walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_subset_construction_splits_only_labels_of_several_atoms():
    """The atoms are walked once to key them, then once for each distinct
    label of several atoms, never for a label that is an atom."""
    calls = []
    real = fsa._subset_construct

    def watched(by_src, initial, accepting, atoms):
        atoms = Watched(atoms)
        got = real(by_src, initial, accepting, atoms)
        labels = {b for arcs in by_src for _s, _d, b, _pc in arcs}
        calls.append((atoms.walks, 1 + len(labels - set(atoms))))
        return got

    with mock.patch.object(fsa, "_subset_construct", watched):
        for grammar, entry in shipped_entries():
            minimize(load_grammar(grammar).compile(entry))
        minimize(lexicon(400)[1])
    assert all(walks == want for walks, want in calls)
    assert calls[-2] == (1, 1)  # the wordform's own labels: atoms only


# -- enrichment of a machine with no finals -------------------------------------------------


@pytest.mark.parametrize("name", sorted(_ENRICH_FN))
def test_the_evaluator_enriches_no_machine_without_finals(name):
    cg = load_grammar("koasati")
    patch, built = counting_constructions()
    with mock.patch.dict(_ENRICH_FN, {name: mock.Mock(side_effect=AssertionError(name))}):
        m = cg.compile(f"{name}({{}})")
        assert (m.n, m.finals, m.raw_arcs) == (1, frozenset(), ())
        m = cg.compile(f"{name}([a] & [o])")
        assert (m.n, m.finals, m.raw_arcs) == (1, frozenset(), ())
    # the enrichment itself still enriches it (see test_enrich)
    assert len(add_self_loops(never_fsa(cg.alphabet)).raw_arcs) == 1
    assert not built


def test_no_rejected_stem_is_enriched():
    """150 of the 400 seed-1 stems are rejected: 250 are enriched, three
    times each, and no enrichment sees an operand without finals."""
    operands = []
    wrapped = {name: (lambda real: lambda m: operands.append(m) or real(m))(real)
               for name, real in _ENRICH_FN.items()}
    cg = compile_lexicon(koasati.stems(1, 400))
    with mock.patch.dict(_ENRICH_FN, wrapped):
        cg.compile(koasati.ENTRY)
    assert len(operands) == 750 and all(m.finals for m in operands)
