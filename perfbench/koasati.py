"""Seeded Koasati inputs and a string-level oracle for their word forms.

The oracle restates punctual-aspect reduplication over plain strings, with
no automata, so the benchmark can check redup's forms and parse verdicts
against a reference that redup did not produce:

* a vowel is moraic; a consonant is moraic before a consonant or word-finally;
* the cut falls after the first two adjacent moraic segments, and the
  segment after the cut must be non-moraic;
* the infix is the initial consonant (``h`` for a vowel-initial stem)
  followed by ``o`` or ``oo``;
* a candidate survives only if its last six segments are non-moraic,
  moraic, moraic, non-moraic, moraic, moraic (two heavy syllables).
"""

from __future__ import annotations

import random

VOWELS = "aio"
CONSONANTS = "thspnklc"
VOWEL_INITIAL = 0.25  # share of stems whose first syllable has no onset
_TWO_HEAVY = [False, True, True, False, True, True]


def moras(word: str) -> list[bool]:
    last = len(word) - 1
    return [
        c in VOWELS or i == last or word[i + 1] not in VOWELS
        for i, c in enumerate(word)
    ]


def punctual_forms(stem: str) -> set[str]:
    """The punctual-aspect forms of one stem (empty if it has none)."""
    m = moras(stem)
    cut = next((i + 2 for i in range(len(stem) - 1) if m[i] and m[i + 1]), None)
    if cut is None or cut >= len(stem) or m[cut]:
        return set()
    copy = "h" if stem[0] in VOWELS else stem[0]
    forms = set()
    for melody in ("o", "oo"):
        form = stem[:cut] + copy + melody + stem[cut:]
        if moras(form)[-6:] == _TWO_HEAVY:
            forms.add(form)
    return forms


def lexicon_forms(stems) -> set[str]:
    return set().union(*(punctual_forms(s) for s in stems))


# -- seeded generators -------------------------------------------------------


def _skeletons(count: int) -> list[str]:
    """CV skeletons of two or three CV(C) syllables, in fixed proportions.

    Word forms depend on the skeleton alone, so fixing how many stems take
    each skeleton keeps the lexicon's size and its number of forms nearly
    the same from seed to seed.
    """
    weights = {}
    for n in (2, 3):
        for onset in (True, False):
            for codas in range(2**n):
                skel = "".join(
                    ("C" if i or onset else "") + "V" + ("C" if codas >> i & 1 else "")
                    for i in range(n)
                )
                weights[skel] = 0.5 * (1 - VOWEL_INITIAL if onset else VOWEL_INITIAL) / 2**n
    quota = {k: int(count * w) for k, w in weights.items()}
    by_remainder = sorted(weights, key=lambda k: (-(count * weights[k] - quota[k]), k))
    for k in by_remainder[: count - sum(quota.values())]:
        quota[k] += 1
    return [k for k in sorted(quota) for _ in range(quota[k])]


def stems(seed: int, count: int) -> list[str]:
    """Distinct stems of two or three CV(C) syllables over the inventory.

    A share ``VOWEL_INITIAL`` of them drop the first onset, so both
    first-slot variants of the grammar's ``stem`` are exercised.
    """
    rng = random.Random(f"stems:{seed}")
    skeletons = _skeletons(count)
    rng.shuffle(skeletons)
    seen: set[str] = set()
    out: list[str] = []
    for skel in skeletons:
        word = None
        while word is None or word in seen:
            word = "".join(rng.choice(CONSONANTS if c == "C" else VOWELS) for c in skel)
        seen.add(word)
        out.append(word)
    return out


ENTRY = "bench_wordform"


def grammar_text(koasati_source: str, stem_list) -> str:
    """The shipped grammar plus one definition per stem and a wordform entry.

    A vowel-initial stem stores its first vowel through
    ``underspecified_for_voicing``, as the shipped ``aklatlin`` does.
    """
    lines = [koasati_source]
    names = []
    for i, stem in enumerate(stem_list):
        name = f"bench_stem_{i}"
        names.append(name)
        if stem[0] in VOWELS:
            lines.append(f'{name} := stem(underspecified_for_voicing({stem[0]}), "{stem[1:]}").')
        else:
            lines.append(f'{name} := stem([], "{stem}").')
    lines.append("bench_lexicon := { " + ", ".join(names) + " }.")
    lines.append(f"{ENTRY} := wordform(bench_lexicon).")
    return "\n".join(lines) + "\n"


def near_miss(rng: random.Random, word: str, tokens: str) -> str:
    """One substitution, insertion or deletion of a single token."""
    i = rng.randrange(len(word))
    edit = rng.choice(("sub", "ins", "del") if len(word) > 1 else ("sub", "ins"))
    if edit == "del":
        return word[:i] + word[i + 1 :]
    if edit == "ins":
        return word[:i] + rng.choice(tokens) + word[i:]
    return word[:i] + rng.choice([t for t in tokens if t != word[i]]) + word[i + 1 :]


def queries(seed: int, forms, count: int) -> list[str]:
    """Half generated forms, half single-edit near misses of them."""
    rng = random.Random(f"queries:{seed}")
    pool = sorted(forms)
    out = []
    for i in range(count):
        form = rng.choice(pool)
        out.append(near_miss(rng, form, VOWELS + CONSONANTS) if i % 2 else form)
    return out
