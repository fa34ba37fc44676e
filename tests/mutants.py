"""Recorded mutants: small faults that named tests must catch.

Each mutant replaces one text of a file under ``src/amalgams`` (it must
occur there exactly once) and names the tests that must fail on it.
``tests/run_mutants.py`` applies them one at a time to a copy of
``src/``; ``tests/test_layout.py`` checks that every old text is still
there, once. A mutant whose tests pass survives: it stays in this list,
and the gap it shows is recorded in CHANGES.md.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/amalgams
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest ids, relative to the repo root
    change: str  # the change whose guard the mutant records


WORDS_LCR = ("tests/test_words.py::test_longest_common_run_matches_naive",
             "tests/test_words.py::"
             "test_longest_common_run_on_periodic_wide_and_edge_inputs")
TOPOLOGY = "tests/test_cli.py::test_topology_chain_command"
MEMO = "tests/test_engine.py::test_memoised_decomposition_matches_reference"
WORDS_RUNS = (
    "tests/test_words.py::"
    "test_runs_at_least_finds_runs_planted_at_every_sample_offset",
    "tests/test_words.py::test_runs_at_least_on_doubled_short_periods",
    "tests/test_words.py::"
    "test_runs_at_least_matches_karp_rabin_on_fixture_units")
LCR_CHANGE = "longest_common_run in linear time with a suffix automaton"
RUNS_CHANGE = "runs_at_least by sampled exact search, not window hashing"
ROW_CHANGE = "one decomposition row per (element, level) for every cut"
LABEL_CHANGE = "subgroup descriptors own the double-coset decision"
FREE_REPLAY_CHANGE = "flat replay of Dehn parts on shared-free amalgams"
WRAP_CHANGE = "a full wrap is a self-alignment only from seed 1 to end 1"
GATE_CHANGE = "build_quotient is the C'(1/10) gate alone"
DIGEST_CHANGE = "op digests recorded from one fresh process per op"
WALK_CHANGE = "one walk tree per alpha"
MAX_CORE_CHANGE = "max_core checked against the brute-force overlaps"
RUN_CHANGE = "walks to limit nodes only; successor runs in one step"
INDEX_CHANGE = "fixture entry indices are distinct ints"
DEHN_CHANGE = ("one-pass cyclic reduction, block-compared coded walks, "
               "cheap parse keys")
LAYER_CHANGE = "the engine validates each layer's system"
DEHN_DIFF = ("tests/test_cancellation.py::"
             "test_dehn_decide_matches_reference",)
FREE_REPLAY = ("tests/test_cancellation.py::"
               "test_free_replay_matches_element_replay",)
DIGESTS = ("tests/test_op_digests.py::"
           "test_benchmark_ops_match_their_digests",)
WALKS = ("tests/test_colorings.py::"
         "test_from_walks_matches_scanned_walks_below_omega_powers",)
RUNS_DIFF = ("tests/test_colorings.py::"
             "test_from_walks_matches_reference_on_omega_squared_scopes",
             "tests/test_colorings.py::"
             "test_from_walks_matches_reference_on_random_scopes")

MUTANTS = (
    Mutant("lcr-clone-first-end", "_pykernels.py",
           "first.append(first[q])", "first.append(i)",
           WORDS_LCR, LCR_CHANGE),
    Mutant("lcr-no-reset-after-link", "_pykernels.py",
           "            s = link[s]\n            n = length[s]\n",
           "            s = link[s]\n",
           WORDS_LCR + (TOPOLOGY,), LCR_CHANGE),
    Mutant("lcr-clone-without-transitions", "_pykernels.py",
           "            go[clone * sigma + edges[e]] = "
           "go[q * sigma + edges[e]]\n", "",
           WORDS_LCR + (TOPOLOGY,), LCR_CHANGE),
    Mutant("lcr-disjoint-inverted", "_pykernels.py",
           "if rank.keys().isdisjoint(a):",
           "if not rank.keys().isdisjoint(a):",
           WORDS_LCR + (TOPOLOGY,), LCR_CHANGE),
    Mutant("runs-stride-too-large", "_pykernels.py",
           "    d = k - w + 1\n", "    d = k - w + 2\n",
           WORDS_RUNS[:1], RUNS_CHANGE),
    Mutant("runs-skip-overlapping-hits", "_pykernels.py",
           "j = b.find(needle, j + 1)", "j = b.find(needle, j + w)",
           WORDS_RUNS[1:2] + (
               "tests/test_words.py::"
               "test_runs_at_least_on_small_alphabets_matches_naive",
               "tests/test_words.py::"
               "test_runs_at_least_on_doubled_periodic_labels"),
           RUNS_CHANGE),
    Mutant("runs-right-without-single-labels", "_pykernels.py",
           "                while e < na and f < nb and a[e] == b[f]:\n"
           "                    e += 1\n"
           "                    f += 1\n", "",
           WORDS_RUNS, RUNS_CHANGE),
    Mutant("row-suffix-wins", "engine.py",
           "cut = p, max(n - q_free, p)",
           "cut = min(p, n - q_free), n - q_free",
           (MEMO,), ROW_CHANGE),
    Mutant("row-breakpoint-strict", "engine.py",
           "while p < n and pre[p] <= beta:",
           "while p < n and pre[p] < beta:",
           (MEMO,), ROW_CHANGE),
    Mutant("row-cut-unclamped", "engine.py",
           "[min(max(beta, 0), gamma)]", "[beta]",
           (MEMO,), ROW_CHANGE),
    # H·g instead of H·g·H differs only where H is not normal
    Mutant("finite-orbit-without-right-factor", "groups.py",
           "orbit = {table[table[u][g]][v] for u in members for v in members}",
           "orbit = {table[u][g] for u in members}",
           ("tests/test_canonical.py::"
            "test_table_coset_label_is_the_double_coset",
            "tests/test_cancellation.py::"
            "test_dehn_finds_long_part_inside_shorter_chain"), LABEL_CHANGE),
    Mutant("letter-label-outer-segments", "groups.py",
           "tuple(segs[1:-1])", "tuple(segs)",
           ("tests/test_canonical.py::"
            "test_shared_free_coset_label_is_the_double_coset",
            "tests/test_groups.py::test_double_coset_letter_support",
            "tests/test_systems.py::test_d_case_needs_its_hint"),
           LABEL_CHANGE),
    Mutant("finite-malnormal-counts-identity", "groups.py",
           "                if h == group._identity:\n"
           "                    continue\n", "",
           ("tests/test_groups.py::test_malnormal_finite_exhaustive",
            "tests/test_cli.py::test_table_fixtures_finish"), LABEL_CHANGE),
    # every reduced product then counts as a part of length t
    Mutant("free-part-without-h-test", "cancellation.py",
           "    if not T.in_H(h_end):\n"
           "        return ChainResult(0, h0, False)\n", "",
           ("tests/test_cancellation.py::"
            "test_free_replay_matches_element_replay",), FREE_REPLAY_CHANGE),
    # corrupted's r1 = h^-1·r0 would read as the excluded self-alignment
    Mutant("wrap-without-seed-test", "cancellation.py",
           "and h0.owner.is_identity(h0) \\\n            and ", "and ",
           ("tests/test_cancellation.py::"
            "test_corrupted_h_translate_diagonal_is_a_piece",), WRAP_CHANGE),
    Mutant("quotient-gate-at-one", "cancellation.py",
           "if R.chi > Fraction(1, 10):", "if R.chi > Fraction(1, 1):",
           ("tests/test_cancellation.py::"
            "test_build_quotient_gates_at_one_tenth_only",), GATE_CHANGE),
    Mutant("report-keys-unsorted", "report.py",
           "sort_keys=True, indent=2", "sort_keys=False, indent=2",
           DIGESTS, DIGEST_CHANGE),
    # on a fail: every pass of the workloads reports max_core 0
    Mutant("cprime-max-core-off-by-one", "cancellation.py",
           'CPrimeResult("fail", wit, res.ell, pairs)',
           'CPrimeResult("fail", wit, res.ell + 1, pairs)', DIGESTS,
           DIGEST_CHANGE),
    # the running maximum over the chains walked on a pass or gray scan
    Mutant("cprime-running-max-core-off-by-one", "cancellation.py",
           "max_core = max(max_core, res.ell)",
           "max_core = max(max_core, res.ell + 1)",
           ("tests/test_cancellation.py::"
            "test_checker_matches_bruteforce_on_random_sets",),
           MAX_CORE_CHANGE),
    Mutant("dehn-offset-off-by-one", "cancellation.py",
           "offset=p, ell=t,", "offset=p + 1, ell=t,", DIGESTS,
           DIGEST_CHANGE),
    # the nodes of the previous alpha's tree stay in the new row
    Mutant("walk-row-not-reset", "colorings.py",
           "self._row = {alpha._key: [0, 0, None, (alpha,), 0]}",
           "self._row.setdefault(alpha._key, [0, 0, None, (alpha,), 0])",
           WALKS, WALK_CHANGE),
    # on the canonical ladder these terms never raise e; TailedLadder's do
    Mutant("row-e-without-members-below", "colorings.py",
           "            if entry[1]:\n"
           "                delta = entry[3][entry[4]]\n"
           "                for xi in self.C.members_below(delta, alpha):\n"
           "                    value = max(value, self.e(xi, alpha))\n", "",
           WALKS, WALK_CHANGE),
    Mutant("c1-from-node-below", "colorings.py",
           "col[2].append(entry[1])", "col[2].append(entry[2][1])", WALKS,
           WALK_CHANGE),
    Mutant("c1-from-alpha-entry", "colorings.py",
           "col[2].append(entry[1])", "col[2].append(row[a._key][1])",
           WALKS, WALK_CHANGE),
    Mutant("run-depth-off-by-one", "colorings.py",
           "[k - depths[i] for i in run]",
           "[k - depths[i] + 1 for i in run]",
           WALKS + RUNS_DIFF, RUN_CHANGE),
    # right on the w^2 scopes, whose runs have no gaps below count
    Mutant("run-assumed-contiguous", "colorings.py",
           "run = range(first[h], j)", "run = range(j - k, j)",
           WALKS + RUNS_DIFF[1:], RUN_CHANGE),
    Mutant("successor-c1-from-head", "colorings.py",
           "c1 += [0] * j", "c1 += [*hc1, *[0] * len(run)]",
           WALKS + RUNS_DIFF, RUN_CHANGE),
    Mutant("flat-index-transposed", "colorings.py",
           "flat[j * (j - 1) // 2 + i] if", "flat[i * (i - 1) // 2 + j] if",
           WALKS + RUNS_DIFF, RUN_CHANGE),
    # steps 1-64 of a coded chain are never compared at position 1
    Mutant("block-compare-one-code-late", "cancellation.py",
           "inv_codes[x + ell:x + ell + 64] == "
           "w2_codes[y + ell:y + ell + 64]",
           "inv_codes[x + ell + 1:x + ell + 65] == "
           "w2_codes[y + ell + 1:y + ell + 65]",
           DEHN_DIFF + ("tests/test_cancellation.py::"
                        "test_coded_chains_match_element_chains",),
           DEHN_CHANGE),
    Mutant("cyclic-reduce-one-pair-too-many", "cancellation.py",
           "CanonicalWord(s[i:j] + (last,))",
           "CanonicalWord(s[i + 1:j - 1] + (last,))",
           DEHN_DIFF, DEHN_CHANGE),
    # every step's seam lands in H: that is what makes it a step
    Mutant("cyclic-reduce-to-len-off-by-one", "cancellation.py",
           'DehnStep("cyclic-reduce", j - i + 1, j - i - 1)',
           'DehnStep("cyclic-reduce", j - i + 1, j - i)',
           DEHN_DIFF, DEHN_CHANGE),
    # a^-1 then reads as the syllable a built before it
    Mutant("parse-key-without-sign", "cli.py",
           "key = (side, sym, sign) if", "key = (side, sym) if",
           DIGESTS, DEHN_CHANGE),
    # the two wrong flattenings of the flat replay: the part's
    # syllables re-split from the letters of both words, H-letters
    # joining the syllable on their left, or of w alone, H-letters
    # joining the syllable on their right
    Mutant("free-part-resplit-left", "cancellation.py",
           "    for s in range(m - j - t, m - j):\n"
           "        letters += inv.syllables[s % m].elt.payload\n"
           "    letters += h0.payload\n"
           "    for syl in w.syllables[p:p + t]:\n"
           "        letters += syl.elt.payload\n",
           "    def split(u):\n"
           "        out, side = [], None\n"
           "        for x in [x for y in u.syllables for x in y.elt.payload]:\n"
           "            here = side if x[0] in T.h_symbols \\\n"
           "                else x[0] in T.K.symbols\n"
           "            if not out or here != side:\n"
           "                out.append([])\n"
           "            out[-1].append(x)\n"
           "            side = here\n"
           "        return out\n"
           "    r_split, w_split = split(inv), split(w)\n"
           "    for s in range(m - j - t, m - j):\n"
           "        letters += r_split[s % len(r_split)]\n"
           "    letters += h0.payload\n"
           "    for syl in w_split[p:p + t]:\n"
           "        letters += syl\n",
           FREE_REPLAY, FREE_REPLAY_CHANGE),
    Mutant("free-part-resplit-w-right", "cancellation.py",
           "    for syl in w.syllables[p:p + t]:\n"
           "        letters += syl.elt.payload\n",
           "    out, side, held = [], None, []\n"
           "    for x in [x for y in w.syllables for x in y.elt.payload]:\n"
           "        if x[0] in T.h_symbols:\n"
           "            held.append(x)\n"
           "            continue\n"
           "        here = x[0] in T.K.symbols\n"
           "        if not out or here != side:\n"
           "            out.append([])\n"
           "        out[-1] += held + [x]\n"
           "        held, side = [], here\n"
           "    if out:\n"
           "        out[-1] += held\n"
           "    for syl in out[p:p + t]:\n"
           "        letters += syl\n",
           FREE_REPLAY, FREE_REPLAY_CHANGE),
    # a layer whose system is invalid would build
    Mutant("build-layer-without-validation", "engine.py",
           "    if report.status == \"invalid\":\n"
           "        raise ValueError(f\"system is invalid: "
           "{report.witness}\")\n", "",
           ("tests/test_engine.py::"
            "test_invalid_layer_system_is_a_hard_error",), LAYER_CHANGE),
    Mutant("fixture-index-unchecked", "systems.py",
           "            if type(index) is not int or index in indices:\n"
           "                raise ValueError(f\"index must be an int that no "
           "other \"\n"
           "                                 f\"entry has, not {index!r}\")\n",
           "", ("tests/test_cli.py::"
                "test_bad_fixture_contents_are_usage_errors",), INDEX_CHANGE),
)
