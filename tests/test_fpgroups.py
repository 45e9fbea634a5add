"""Finitely presented groups: coset enumeration, low-index subgroup
search, and Schreier generators, with the compiled engine checked against
the pure-Python reference of `engine_oracle`."""

import contextlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle
from flatact import fpgroups
from flatact.fpgroups import (DEFAULT_NODE_LIMIT, CosetLimitExceeded,
                              CosetTable, FpGroup,
                              PresentationError, SearchBoundExceeded,
                              coxeter_group, e7_weyl_presentation,
                              free_reduce, invert_word, letters_to_word,
                              low_index_subgroups,
                              schreier_generators, symmetric_presentation,
                              todd_coxeter, word_to_letters)
from flatact.groups import PermGroup

words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(tuple)


@st.composite
def small_presentations(draw):
    """A 2- or 3-generator presentation (a power relator of exponent 2..4
    for some generators, and one to three random relators) with at most one
    random subgroup word."""
    ngens = draw(st.integers(2, 3))
    letter = st.sampled_from([s for k in range(1, ngens + 1) for s in (k, -k)])
    powers = [draw(st.sampled_from([0, 2, 3, 4])) for _ in range(ngens)]
    rels = [(k + 1,) * e for k, e in enumerate(powers) if e]
    rels += draw(st.lists(st.lists(letter, min_size=2, max_size=10).map(tuple),
                          min_size=1, max_size=3))
    sub = draw(st.lists(st.lists(letter, max_size=3).map(tuple), max_size=1))
    return FpGroup(ngens, tuple(rels)), sub


def child_env():
    """The environment for a child `python3 -c "import flatact ..."`: this
    one, with the directory flatact was imported from first on PYTHONPATH,
    since pytest's `pythonpath` setting reaches only its own process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fpgroups.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))


def _outcome(g, sub, engine, limit):
    """The table that `engine`, "pure" (the oracle) or "compiled",
    enumerates for the subgroup words of g, handed over as todd_coxeter
    hands them, or None when the coset limit is exceeded."""
    enumerate_cosets = {"pure": engine_oracle.enumerate_cosets,
                        "compiled": fpgroups._enumerate}[engine]
    try:
        return enumerate_cosets(g.ngens, [word_to_letters(w) for w in g.relators],
                                [word_to_letters(free_reduce(w)) for w in sub], limit)
    except CosetLimitExceeded:
        return None


ENGINE_CASES = (
    [pytest.param(e7_weyl_presentation(), [(i,) for i in range(1, 8) if i != drop],
                  id="E7/without-s%d" % drop) for drop in range(1, 8)]
    + [pytest.param(symmetric_presentation(n), [], id="S%d" % n) for n in range(3, 8)]
    + [pytest.param(symmetric_presentation(5), [(1,)], id="S5/<s1>")]
    + [pytest.param(coxeter_group([[1, m], [m, 1]]), sub, id="D%d/%d" % (m, len(sub)))
       for m in (2, 3, 5, 8, 12) for sub in ([], [(1,)])]
    # an order-8 group whose relator scans leave two or more entries of a
    # coset to the fill-in loop, so that loop's definition order shows
    + [pytest.param(FpGroup(2, ((1, 1, 2, 2), (-2, -1, 2, -1))), [], id="fill-in")]
)


class TestWords:
    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_free_reduce_idempotent_and_no_cancellation(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))

    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_inverse_cancels(self, w):
        assert free_reduce(w + invert_word(w)) == ()

    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_letters_roundtrip(self, w):
        assert letters_to_word(word_to_letters(w)) == w


class TestFpGroup:
    def test_relators_are_reduced(self):
        g = FpGroup(2, ((1, -1, 2, 2), ()))
        assert g.relators == ((2, 2),)

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(PresentationError):
            FpGroup(1, ((1, 2),))
        with pytest.raises(PresentationError):
            FpGroup(1, ((0,),))

    def test_text_roundtrip(self):
        g = symmetric_presentation(4)
        assert FpGroup.from_text(g.to_text()) == g

    def test_malformed_text(self):
        with pytest.raises(PresentationError):
            FpGroup.from_text("nope\n")
        with pytest.raises(PresentationError):
            FpGroup.from_text("gens 2\n1 x\n")

    def test_coxeter_matrix_validation(self):
        with pytest.raises(PresentationError):
            coxeter_group([[2, 3], [3, 1]])  # diagonal must be 1
        with pytest.raises(PresentationError):
            coxeter_group([[1, 3], [4, 1]])  # must be symmetric


class TestToddCoxeter:
    def test_cyclic_group(self):
        g = FpGroup(1, ((1,) * 5,))
        assert todd_coxeter(g).index == 5

    def test_subgroup_cosets_in_s3(self):
        g = symmetric_presentation(3)
        assert todd_coxeter(g).index == 6
        assert todd_coxeter(g, [(1,)]).index == 3
        assert todd_coxeter(g, [(1,), (2,)]).index == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symmetric_presentation_orders(self, n):
        assert todd_coxeter(symmetric_presentation(n)).index == math.factorial(n)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_dihedral(self, m):
        assert todd_coxeter(coxeter_group([[1, m], [m, 1]])).index == 2 * m

    def test_coset_subgroup_letters_and_limit_checked(self):
        g = symmetric_presentation(3)
        with pytest.raises(PresentationError):
            todd_coxeter(g, [(3,)])
        with pytest.raises(PresentationError):
            todd_coxeter(g, [(0,)])
        with pytest.raises(PresentationError):
            todd_coxeter(g, coset_limit=2 ** 31)
        assert todd_coxeter(g, coset_limit=2 ** 31 - 1).index == 6

    def test_coset_limit(self):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(symmetric_presentation(6), coset_limit=100)

    def test_generator_permutations_generate_the_group(self):
        ct = todd_coxeter(symmetric_presentation(4))
        perms = ct.generator_permutations()
        assert PermGroup(perms, ct.index).order() == 24

    def test_trace_word(self):
        ct = todd_coxeter(symmetric_presentation(3), [(1,)])
        assert ct.trace(0, word_to_letters((1,))) == 0
        assert ct.trace(0, word_to_letters((2, -2))) == 0

    def test_validation_rejects_tampered_table(self):
        ct = todd_coxeter(symmetric_presentation(3), [(1,)])
        bad = ct.table.copy()
        bad[0, 0], bad[1, 0] = bad[1, 0], bad[0, 0]
        with pytest.raises(PresentationError):
            CosetTable(ct.group, ct.subgroup_words, bad)

    @pytest.mark.parametrize("entry", [-1, 3])
    def test_validation_rejects_entry_out_of_range(self, entry):
        ct = todd_coxeter(symmetric_presentation(3), [(1,)])
        bad = ct.table.copy()
        bad[2, 3] = entry
        with pytest.raises(PresentationError, match="out of range"):
            CosetTable(ct.group, ct.subgroup_words, bad)

    def test_validation_rejects_unsatisfied_relator(self):
        # the regular table of C3 is a closed table for <a | a^2>'s letters
        # but not for its relator
        ct = todd_coxeter(FpGroup(1, ((1, 1, 1),)))
        with pytest.raises(PresentationError, match="relator"):
            CosetTable(FpGroup(1, ((1, 1),)), (), ct.table)


class TestEngines:
    """The compiled engine against the pure-Python oracle, its reference."""

    @pytest.mark.parametrize("g,sub", ENGINE_CASES)
    def test_engines_agree(self, g, sub):
        pure = _outcome(g, sub, "pure", fpgroups.DEFAULT_COSET_LIMIT)
        comp = _outcome(g, sub, "compiled", fpgroups.DEFAULT_COSET_LIMIT)
        assert comp.dtype == pure.dtype == np.int32
        assert comp.tobytes() == pure.tobytes()
        assert todd_coxeter(g, sub).table.tobytes() == pure.tobytes()

    @given(small_presentations())
    @settings(max_examples=150, deadline=None)
    def test_engines_agree_on_random_presentations(self, case):
        g, sub = case
        pure = _outcome(g, sub, "pure", 300)
        comp = _outcome(g, sub, "compiled", 300)
        if pure is None:
            assert comp is None
        else:
            assert comp is not None and comp.tobytes() == pure.tobytes()

    def test_coset_limit_boundary(self):
        # the largest limit at which the pure engine raises for S6, found by
        # bisection: below it every limit raises, above it none does
        g = symmetric_presentation(6)
        lo, hi = 0, 10 ** 5
        assert _outcome(g, [], "pure", lo) is None
        assert _outcome(g, [], "pure", hi) is not None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _outcome(g, [], "pure", mid) is None:
                lo = mid
            else:
                hi = mid
        assert lo >= 720
        assert _outcome(g, [], "compiled", lo) is None
        pure = _outcome(g, [], "pure", lo + 1)
        comp = _outcome(g, [], "compiled", lo + 1)
        assert comp is not None and comp.tobytes() == pure.tobytes()

    def test_coset_limit_boundary_across_renumbering(self):
        # the compiled engine renumbers its live cosets 11 times while it
        # enumerates E7 over the maximal parabolic without s4, so the limit
        # must count the cosets renumbered away; bisect the compiled engine
        # alone and check the pure one at the boundary
        g = e7_weyl_presentation()
        sub = [(i,) for i in range(1, 8) if i != 4]
        lo, hi = 0, 10 ** 6
        assert _outcome(g, sub, "compiled", lo) is None
        assert _outcome(g, sub, "compiled", hi) is not None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _outcome(g, sub, "compiled", mid) is None:
                lo = mid
            else:
                hi = mid
        assert lo >= 10080
        assert _outcome(g, sub, "pure", lo) is None
        pure = _outcome(g, sub, "pure", lo + 1)
        comp = _outcome(g, sub, "compiled", lo + 1)
        assert pure is not None and pure.shape[0] == 10080
        assert comp.tobytes() == pure.tobytes()

    def test_compiled_engine_rejects_bad_arguments(self):
        rels = [(0, 0)]
        with pytest.raises(ValueError):
            fpgroups._enumerate(1, rels, [], 2 ** 31)
        with pytest.raises(ValueError):
            fpgroups._enumerate(1, rels, [(2,)], 10)
        with pytest.raises(ValueError):
            fpgroups._enumerate(1, [(-1,)], [], 10)
        assert fpgroups._enumerate(1, rels, [], 2 ** 31 - 1).shape == (2, 2)
        assert fpgroups._enumerate(0, [], [], 0).shape == (1, 0)

    def test_a_failed_array_still_frees_the_buffer(self, monkeypatch):
        lib, released = fpgroups._LIB, []

        class Recording:
            def __getattr__(self, name):
                return getattr(lib, name)

            def fa_release(self, buf, n):
                released.append((bool(buf), n))
                lib.fa_release(buf, n)

        monkeypatch.setattr(fpgroups, "_LIB", Recording())
        # the owner of the 2 x 2 table of Z/2 cannot be built
        with mock.patch.object(fpgroups._Buffer, "__init__", side_effect=MemoryError), \
                pytest.raises(MemoryError):
            fpgroups._enumerate(1, [(0, 0)], [], 10)
        assert released == [(True, 4)]
        # a view of the table keeps the buffer after the table is gone
        table = fpgroups._enumerate(1, [(0, 0)], [], 10)
        row = table[1]
        del table
        assert released == [(True, 4)] and row.tolist() == [0, 0]
        del row
        assert released == [(True, 4)] * 2

    @pytest.mark.skipif(sys.platform != "linux", reason="needs /proc")
    def test_allocation_failure_is_memory_error(self):
        # the full E7 enumeration maps 256 MB at its peak (room for 4,194,304
        # rows of 14 entries, their parents and the coincidence queue);
        # allow 128 MB of address space past the imports
        code = """if True:
            import resource
            from flatact import fpgroups as f
            with open("/proc/self/status") as fh:
                vm = [int(l.split()[1]) for l in fh if l.startswith("VmSize")][0]
            limit = vm * 1024 + (128 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            g = f.e7_weyl_presentation()
            rels = [f.word_to_letters(w) for w in g.relators]
            try:
                f._enumerate(g.ngens, rels, [], 10 ** 7)
            except MemoryError as exc:
                print("MemoryError", exc)
            """
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "MemoryError coset table does not fit in memory"

    @pytest.mark.skipif(sys.platform != "linux", reason="needs /proc")
    def test_a_second_enumeration_does_not_raise_the_peak(self):
        # E7 over <s1,s2,s3> twice in one process, the first table dropped
        # in between: the second run must find room where the first had it
        code = """if True:
            from flatact import fpgroups as f
            def hwm():
                with open("/proc/self/status") as fh:
                    return [int(l.split()[1]) for l in fh if l.startswith("VmHWM")][0]
            g = f.e7_weyl_presentation()
            peaks = []
            for _ in range(2):
                table = f.todd_coxeter(g, [(1,), (2,), (3,)])
                assert table.index == 241920
                del table
                peaks.append(hwm())
            print(*peaks)
            """
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        first, second = map(int, proc.stdout.split())
        assert second - first <= 2048, (first, second)

    def test_library_cached_per_user(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        fpgroups._load_compiled()
        cache = tmp_path / "flatact"
        assert cache.stat().st_mode & 0o777 == 0o700
        (lib,) = cache.iterdir()
        assert lib.name.startswith("coset-") and lib.name.endswith(".so")
        assert len(lib.name) == len("coset-.so") + 64
        mtime = lib.stat().st_mtime_ns
        fpgroups._load_compiled()
        assert [p.name for p in cache.iterdir()] == [lib.name]
        assert lib.stat().st_mtime_ns == mtime

    def test_cache_writable_by_others_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        (tmp_path / "flatact").mkdir()
        os.chmod(tmp_path / "flatact", 0o777)
        with pytest.raises(OSError):
            fpgroups._load_compiled()
        assert list((tmp_path / "flatact").iterdir()) == []

    def test_import_fails_without_a_compiler(self, tmp_path):
        # no cc on PATH and an empty cache: the import raises the missing
        # compiler's error, and no engine stands in for the compiled one
        empty = tmp_path / "bin"
        empty.mkdir()
        env = dict(child_env(), PATH=str(empty), XDG_CACHE_HOME=str(tmp_path / "cache"))
        proc = subprocess.run([sys.executable, "-c", "import flatact.fpgroups"],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode != 0
        assert proc.stderr.rstrip().splitlines()[-1] == (
            "FileNotFoundError: [Errno 2] No such file or directory: 'cc'")
        assert [p.name for p in (tmp_path / "cache" / "flatact").iterdir()] == []

    def test_import_shows_the_compiler_error(self, tmp_path):
        # a copy of the package whose engine source does not compile: the
        # import fails, and the compiler's message names the source
        package = tmp_path / "src" / "flatact"
        shutil.copytree(os.path.dirname(fpgroups.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(package / "_coset.c", "a") as fh:
            fh.write("\nnot C;\n")
        env = dict(child_env(), PYTHONPATH=str(tmp_path / "src"),
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        proc = subprocess.run([sys.executable, "-c", "import flatact.fpgroups"],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode != 0
        assert str(package / "_coset.c") in proc.stderr
        assert "CalledProcessError" in proc.stderr.rstrip().splitlines()[-1]
        assert list((tmp_path / "cache" / "flatact").iterdir()) == []


class TestLowIndex:
    def test_s3_classes(self):
        g = symmetric_presentation(3)
        results = low_index_subgroups(g, 3)
        assert [t.index for t, _ in results] == [1, 2, 3]

    def test_cyclic_c4(self):
        g = FpGroup(1, ((1, 1, 1, 1),))
        results = low_index_subgroups(g, 4)
        assert sorted(t.index for t, _ in results) == [1, 2, 4]

    def test_free_rank_one(self):
        # Z has exactly one subgroup of each index
        g = FpGroup(1, ())
        results = low_index_subgroups(g, 3)
        assert sorted(t.index for t, _ in results) == [1, 2, 3]

    def test_s4_classes_up_to_index_4(self):
        g = symmetric_presentation(4)
        results = low_index_subgroups(g, 4)
        # S4, A4, dihedral of order 8, point stabilizer S3
        assert sorted(t.index for t, _ in results) == [1, 2, 3, 4]

    def test_generator_words_lie_in_subgroup(self):
        g = symmetric_presentation(4)
        for table, gen_words in low_index_subgroups(g, 4):
            for w in gen_words:
                assert table.trace(0, word_to_letters(w)) == 0

    def test_node_limit(self):
        with pytest.raises(SearchBoundExceeded):
            low_index_subgroups(symmetric_presentation(5), 6, node_limit=10)

    def test_pure_search_is_not_bounded_by_the_python_stack(self):
        # Z to index 1000: the oracle's search path and deduction chains
        # are about 1000 frames deep, past the Python recursion limit
        tables, _ = engine_oracle.low_index(
            fpgroups._relator_rotations(FpGroup(1, ())), 1000, 10 ** 6)
        assert sorted(t.shape for t in tables) == [(n, 2) for n in range(1, 1001)]

    def test_invalid_index(self):
        with pytest.raises(PresentationError):
            low_index_subgroups(symmetric_presentation(3), 0)
        with pytest.raises(PresentationError):
            low_index_subgroups(symmetric_presentation(3), 2 ** 31)


def _raw_rotations(g):
    """Every rotation of every relator, by first letter, with the repeats
    of proper powers kept: (s1 s2)^3 gives each of its rotations three
    times, (1, 2, 1, 3)^2 gives (1, 2, 1, 3, ...) and (1, 3, 1, 2, ...)
    twice each, alternately."""
    by_letter = [[] for _ in range(2 * g.ngens)]
    for w in g.relators:
        letters = word_to_letters(w)
        for p in range(len(letters)):
            rot = letters[p:] + letters[:p]
            by_letter[rot[0]].append(rot)
    return by_letter


def _oracle_search(g, max_index, node_limit=10 ** 7, rotations=fpgroups._relator_rotations):
    """The complete tables of the oracle's low-index backtracking over the
    `rotations` of g, as (shape, bytes) pairs in the order found, and the
    nodes it visited; None when the node limit is exceeded."""
    try:
        tables, nodes = engine_oracle.low_index(rotations(g), max_index, node_limit)
    except SearchBoundExceeded:
        return None
    assert all(t.dtype == np.int32 for t in tables) and nodes <= node_limit
    return [(t.shape, t.tobytes()) for t in tables], nodes


def _complete_tables(g, max_index, engine, node_limit=10 ** 7,
                     rotations=fpgroups._relator_rotations):
    """The complete tables of the low-index backtracking of `engine`,
    "pure" (the oracle) or "compiled", over the `rotations` of g, as
    (shape, bytes) pairs in the order found, or None when the node limit
    is exceeded."""
    if engine == "pure":
        found = _oracle_search(g, max_index, node_limit, rotations)
        return found and found[0]
    try:
        tables = fpgroups._low_index(rotations(g), max_index, node_limit)
    except SearchBoundExceeded:
        return None
    assert all(t.dtype == np.int32 for t in tables)
    return [(t.shape, t.tobytes()) for t in tables]


LOW_INDEX_CASES = (
    [pytest.param(symmetric_presentation(n), k, id="S%d/%d" % (n, k))
     for n, k in ((3, 6), (4, 24), (5, 24), (6, 15))]
    + [pytest.param(coxeter_group([[1, m], [m, 1]]), k, id="D%d/%d" % (m, k))
       for m, k in ((2, 4), (3, 6), (5, 10), (8, 16), (12, 24))]
    + [pytest.param(FpGroup(1, ((1, 1, 1, 1),)), 4, id="C4/4"),
       pytest.param(FpGroup(1, ()), 8, id="Z/8")]
)

def _same_with_repeats(g, max_index, node_limit):
    """Both engines give the same outcome from the raw rotation lists as
    from the distinct ones: the oracle the same tables after the same
    nodes, and the compiled search the same outcome at node_limit and,
    when the search finishes there, at the oracle's node count and one
    node below."""
    found = _oracle_search(g, max_index, node_limit)
    assert _oracle_search(g, max_index, node_limit, _raw_rotations) == found
    checks = [(node_limit, None)]
    if found is not None:
        tables, n = found
        checks = [(node_limit, tables), (n, tables), (n - 1, None)]
    for limit, outcome in checks:
        for rotations in (fpgroups._relator_rotations, _raw_rotations):
            assert _complete_tables(g, max_index, "compiled", limit, rotations) == outcome


# the tables of the `coset_tables` family of benchmarks/digest_outputs.py
_DIGEST_TABLES = [("E7", range(1, 7)), ("E7", range(1, 4))]
_DIGEST_TABLES += [("S%d" % n, ()) for n in range(3, 8)]
_DIGEST_TABLES += [("E7", [i for i in range(1, 8) if i != drop]) for drop in range(2, 6)]
_DIGEST_TABLES += [("S8", ())]


def _verdict(check, g, table):
    """The message `check` raises on the table, or None when it passes."""
    try:
        check(g, table)
    except PresentationError as exc:
        return str(exc)
    return None


def _corruptions(table, rng):
    """Copies of a closed coset table with one fault each: an entry out of
    range (-1, then the row count), a generator column that its inverse
    column does not invert, and a generator that stays a permutation but
    is composed with a transposition, which breaks a relator."""
    n, nl = table.shape
    r, x = rng.randrange(n), rng.randrange(nl)
    for entry in (-1, n):
        bad = table.copy()
        bad[r, x] = entry
        yield bad
    i = rng.randrange(nl // 2)
    r1, r2 = rng.sample(range(n), 2)
    a, b = table[r1, 2 * i], table[r2, 2 * i]
    bad = table.copy()
    bad[r1, 2 * i], bad[r2, 2 * i] = b, a
    yield bad
    bad = bad.copy()
    bad[b, 2 * i + 1], bad[a, 2 * i + 1] = r1, r2
    yield bad


class TestTableCheckEngines:
    @pytest.mark.parametrize("name, sub", _DIGEST_TABLES)
    def test_same_verdicts_as_the_pure_check(self, name, sub):
        g = e7_weyl_presentation() if name == "E7" else symmetric_presentation(int(name[1:]))
        table = todd_coxeter(g, [(i,) for i in sub]).table
        rng = random.Random(name + str(list(sub)))
        verdicts = []
        for t in [table, table[:0]] + list(_corruptions(table, rng)):
            pure = _verdict(engine_oracle.validate_table, g, t)
            assert _verdict(fpgroups._validate, g, t) == pure
            verdicts.append(pure)
        assert verdicts[:4] == [None, "coset table must have at least one row",
                                "coset table entry out of range",
                                "coset table entry out of range"]
        assert re.fullmatch(r"generator column \d is not a bijection", verdicts[4])
        assert verdicts[5].startswith("coset table does not satisfy relator (")


class TestLowIndexEngines:
    """The compiled low-index search against the oracle's, its reference."""

    @pytest.mark.parametrize("g,max_index", LOW_INDEX_CASES)
    def test_engines_agree(self, g, max_index):
        pure = _complete_tables(g, max_index, "pure")
        assert pure and _complete_tables(g, max_index, "compiled") == pure

    def test_e7_to_index_16(self):
        # 25,658 nodes with the row-0 test: the oracle visits exactly that
        # many, and the compiled search passes at that limit and raises one
        # node below it.  The classes are computed from the complete tables
        # by shared code, so equal tables give equal classes.
        g = e7_weyl_presentation()
        pure, nodes = _oracle_search(g, 16, node_limit=25_658)
        assert nodes == 25_658 and len(pure) == 2
        assert _complete_tables(g, 16, "compiled", node_limit=25_658) == pure
        assert _complete_tables(g, 16, "compiled", node_limit=25_657) is None
        with pytest.raises(SearchBoundExceeded):
            low_index_subgroups(g, 16, node_limit=25_657)
        classes = low_index_subgroups(g, 16, node_limit=25_658)
        assert [ct.index for ct, _ in classes] == [1, 2]
        assert [(ct.table.shape, ct.table.tobytes()) for ct, _ in classes] == sorted(pure)

    @given(small_presentations(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_engines_agree_on_random_presentations(self, case, max_index):
        g, _ = case
        pure = _complete_tables(g, max_index, "pure", node_limit=3000)
        assert _complete_tables(g, max_index, "compiled", node_limit=3000) == pure

    def test_node_limit_boundary(self):
        # the largest limit at which the oracle's search raises for S5 to
        # index 10, found by bisection, is one below the nodes it counts;
        # the compiled search raises there too, and both give the same
        # tables at one more
        g = symmetric_presentation(5)
        lo, hi = 0, 10 ** 5
        assert _complete_tables(g, 10, "pure", lo) is None
        assert _complete_tables(g, 10, "pure", hi) is not None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _complete_tables(g, 10, "pure", mid) is None:
                lo = mid
            else:
                hi = mid
        assert lo > 28 and _oracle_search(g, 10, hi)[1] == hi == lo + 1
        assert _complete_tables(g, 10, "compiled", lo) is None
        pure = _complete_tables(g, 10, "pure", lo + 1)
        assert _complete_tables(g, 10, "compiled", lo + 1) == pure

    @pytest.mark.parametrize("g,max_index", LOW_INDEX_CASES + [
        pytest.param(FpGroup(3, ((1, 2, 1, 3) * 2,)), 4, id="(s1s2s1s3)^2/4")])
    def test_repeated_rotations_change_nothing(self, g, max_index):
        # a repeated rotation is scanned again at the same coset, where it
        # finds nothing new: the same tables after the same nodes
        _same_with_repeats(g, max_index, 10 ** 7)

    @given(small_presentations(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_repeated_rotations_change_nothing_on_random_presentations(self, case, max_index):
        g, _ = case
        _same_with_repeats(g, max_index, 3000)

    def test_e7_repeated_rotations_change_nothing(self):
        # E7's relators are s_i^2 and (s_i s_j)^m, m = 2 or 3: 110 raw
        # rotations, 49 distinct ones
        g = e7_weyl_presentation()
        assert sum(map(len, _raw_rotations(g))) == 110
        assert sum(map(len, fpgroups._relator_rotations(g))) == 49
        expected = _complete_tables(g, 16, "compiled", 25_658)
        assert expected is not None
        assert _oracle_search(g, 16, 25_658, _raw_rotations) == (expected, 25_658)
        assert _complete_tables(g, 16, "compiled", 25_658, _raw_rotations) == expected
        assert _complete_tables(g, 16, "compiled", 25_657, _raw_rotations) is None

    def test_deep_search(self):
        g = FpGroup(1, ())
        pure = _complete_tables(g, 1000, "pure", 10 ** 6)
        assert len(pure) == 1000
        assert _complete_tables(g, 1000, "compiled", 10 ** 6) == pure

    def test_compiled_search_rejects_bad_arguments(self):
        rot = fpgroups._relator_rotations(symmetric_presentation(3))
        with pytest.raises(ValueError):
            fpgroups._low_index(rot, 2 ** 31, 10)
        with pytest.raises(ValueError):
            fpgroups._low_index(rot[:2], 3, 10)
        assert fpgroups._low_index([], 3, 10)[0].shape == (1, 0)


@contextlib.contextmanager
def _unpruned():
    """Run low_index_subgroups on the oracle's search with its row-0 test
    keeping every node, so the search reaches every standard table.
    Yields a list that gets one entry for each node entered."""
    nodes = []

    def keep(table, nrows):
        nodes.append(nrows)
        return True

    def search(rotations, max_index, node_limit):
        return engine_oracle.low_index(rotations, max_index, node_limit)[0]

    with mock.patch.object(engine_oracle, "row0_keeps", keep), \
            mock.patch.object(fpgroups, "_low_index", search):
        yield nodes


def _classes(g, max_index, node_limit=DEFAULT_NODE_LIMIT):
    return [(ct.table.shape, ct.table.tobytes(), words)
            for ct, words in low_index_subgroups(g, max_index, node_limit)]


class TestRow0Pruning:
    """The row-0 least-table test cuts only nodes whose completions are
    not the least table of their class."""

    # two generators a, b: columns a, a^-1, b, b^-1; the subgroup at 0
    # holds a^2, and b takes coset 0 to 2 and fixes coset 1
    PARTIAL = [[1, 1, 2, -1], [0, 0, 1, 1], [-1, -1, -1, 0], [-1, -1, -1, -1]]

    def test_smaller_first_difference_is_cut(self):
        # row 1 relabels to (1, 1, 0, ...), below row 0's (1, 1, 2, ...)
        assert not engine_oracle.row0_keeps(self.PARTIAL, 3)

    def test_undefined_entry_stops_the_comparison(self):
        table = [row[:] for row in self.PARTIAL]
        table[0][2] = table[2][3] = -1
        assert engine_oracle.row0_keeps(table, 3)
        # and an undefined entry of row r stops it too
        table = [row[:] for row in self.PARTIAL]
        table[1][2] = table[1][3] = -1
        assert engine_oracle.row0_keeps(table, 3)

    def test_larger_first_difference_is_kept(self):
        # b fixes coset 0 and takes coset 1 to 2: row 1 relabels to
        # (1, 1, 2, ...), above row 0's (1, 1, 0, 0)
        table = [[1, 1, 0, 0], [0, 0, 2, -1], [-1, -1, -1, 1]]
        assert engine_oracle.row0_keeps(table, 3)

    def test_rows_past_nrows_are_not_read(self):
        assert engine_oracle.row0_keeps(self.PARTIAL, 1)

    @pytest.mark.parametrize("g,max_index", LOW_INDEX_CASES)
    def test_same_classes_as_unpruned(self, g, max_index):
        with _unpruned():
            expected_classes = _classes(g, max_index)
        assert _classes(g, max_index) == expected_classes

    def test_e7_same_classes_as_unpruned(self):
        g = e7_weyl_presentation()
        with _unpruned() as nodes:
            expected_classes = _classes(g, 16)
        assert len(nodes) == 45_875
        assert _classes(g, 16) == expected_classes

    @given(small_presentations(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_same_classes_as_unpruned_on_random_presentations(self, case, max_index):
        # the pruned tree is part of the unpruned one, so the pruned search
        # finishes wherever the unpruned one does
        g, _ = case
        with _unpruned():
            try:
                expected_classes = _classes(g, max_index, node_limit=3000)
            except SearchBoundExceeded:
                return
        assert _classes(g, max_index, node_limit=3000) == expected_classes


def _standardize_from_root(table, root):
    """Relabel cosets by first appearance in a row-major scan from root."""
    n, nl = table.shape
    order = [root]
    number = {root: 0}
    i = 0
    while i < len(order):
        for x in range(nl):
            c = int(table[order[i], x])
            if c not in number:
                number[c] = len(order)
                order.append(c)
        i += 1
    return tuple(tuple(number[int(table[order[a], x])] for x in range(nl))
                 for a in range(n))


def _canonical_table_key(table):
    """Conjugacy-class invariant: minimum over base points of the
    standardized relabeled table."""
    return min(_standardize_from_root(table, r) for r in range(table.shape[0]))


def _classes_by_canonical_key(g, max_index):
    """The classes as low_index_subgroups once chose them: the search's
    tables grouped by canonical key, the least of each group kept, as
    (shape, bytes, Schreier words) in the order returned."""
    def sort_key(t):
        return (t.shape[0], t.tolist())

    complete = fpgroups._low_index(fpgroups._relator_rotations(g), max_index, 10 ** 7)
    by_class = {}
    for t in complete:
        key = _canonical_table_key(t)
        cur = by_class.get(key)
        if cur is None or sort_key(t) < sort_key(cur):
            by_class[key] = t
    out = []
    for t in sorted(by_class.values(), key=sort_key):
        ct = CosetTable(g, (), t)
        out.append((t.shape, t.tobytes(), tuple(schreier_generators(ct))))
    return out


def _least_by_every_root(table):
    """Whether a standard table is the least of its class, by a scan from
    every root: the oracle for `_is_least_standard`, which skips the roots
    that the automorphisms found so far take to 0."""
    rows = table.tolist()
    for root in range(1, len(rows)):
        order, number = [root], {root: 0}
        for own, a in zip(rows, order):
            row = []
            for c in rows[a]:
                if c not in number:
                    number[c] = len(order)
                    order.append(c)
                row.append(number[c])
            if row != own:
                if row < own:
                    return False
                break
    return True


def _every_standard_table(g, max_index, node_limit=10 ** 7):
    with _unpruned():
        return fpgroups._low_index(fpgroups._relator_rotations(g), max_index, node_limit)


CLASS_CASES = [
    pytest.param(FpGroup(1, ()), 40, id="Z/40"),
    pytest.param(FpGroup(2, ()), 4, id="F2/4"),
    pytest.param(FpGroup(2, ((1, 1), (2, 2, 2))), 10, id="Z2*Z3/10"),
    pytest.param(FpGroup(2, ((1, 1, -2, -2, -2),)), 9, id="trefoil/9"),
    pytest.param(symmetric_presentation(4), 24, id="S4/24"),
    pytest.param(symmetric_presentation(6), 20, id="S6/20"),
]


class TestLowIndexClasses:
    """The least standard table of each class, against the canonical key
    over every root that chose the classes before."""

    @pytest.mark.parametrize("g,max_index", CLASS_CASES)
    def test_same_classes_as_canonical_keys(self, g, max_index):
        ours = [(ct.table.shape, ct.table.tobytes(), words)
                for ct, words in low_index_subgroups(g, max_index)]
        assert ours == _classes_by_canonical_key(g, max_index)

    @pytest.mark.parametrize("engine", ["pure", "compiled"])
    @pytest.mark.parametrize("g,max_index", CLASS_CASES)
    def test_complete_tables_are_standard_and_distinct(self, g, max_index, engine):
        # each subgroup is found once, as its standard table from coset 0
        search = {"pure": lambda *args: engine_oracle.low_index(*args)[0],
                  "compiled": fpgroups._low_index}[engine]
        tables = search(fpgroups._relator_rotations(g), max_index, 10 ** 7)
        rows = [tuple(map(tuple, t.tolist())) for t in tables]
        assert [_standardize_from_root(t, 0) for t in tables] == rows
        assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("g,max_index", CLASS_CASES + [
        pytest.param(FpGroup(1, ()), 100, id="Z/100")])
    def test_least_standard_against_every_root(self, g, max_index):
        # on every standard table, the least and the others alike
        tables = _every_standard_table(g, max_index)
        verdicts = [fpgroups._is_least_standard(t) for t in tables]
        assert verdicts == [_least_by_every_root(t) for t in tables]
        assert any(verdicts)

    @given(small_presentations(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_least_standard_against_every_root_on_random_presentations(
            self, case, max_index):
        g, _ = case
        try:
            tables = _every_standard_table(g, max_index, node_limit=3000)
        except SearchBoundExceeded:
            return
        assert ([fpgroups._is_least_standard(t) for t in tables]
                == [_least_by_every_root(t) for t in tables])

    def test_z2_free_product_z3_to_index_14(self):
        assert len(low_index_subgroups(FpGroup(2, ((1, 1), (2, 2, 2))), 14)) == 478


class TestRewriting:
    def test_schreier_generators_lie_in_subgroup(self):
        ct = todd_coxeter(symmetric_presentation(4), [(1,), (2,)])
        for w in schreier_generators(ct):
            assert ct.trace(0, word_to_letters(w)) == 0


class TestWeylPresentations:
    def test_e7_parabolic_has_index_56(self):
        # cosets of the subgroup generated by the first six reflections
        g = e7_weyl_presentation()
        ct = todd_coxeter(g, [(i,) for i in range(1, 7)])
        assert ct.index == 56
        perms = ct.generator_permutations()
        assert PermGroup(perms, 56).order() == 2903040


# fa_low_index on stdin: per case the generator count, the rotation count,
# max_index and node_limit, then the rotation ends, their letters and the
# first rotation of each letter; per case it prints the status, the int
# count and the ints
_LOW_INDEX_PROGRAM = r"""
#include "_coset.c"
#include <stdio.h>

static int64_t *read_ints(int64_t n)
{
    int64_t *a = malloc((size_t)(n + 1) * sizeof *a), k;
    long long v;
    for (k = 0; a && k < n; k++) {
        if (scanf("%lld", &v) != 1)
            exit(2);
        a[k] = v;
    }
    return a;
}

int main(void)
{
    long long ngens, nwords, max_index, node_limit;
    while (scanf("%lld %lld %lld %lld", &ngens, &nwords, &max_index, &node_limit) == 4) {
        int64_t *ends = read_ints(nwords), nletters = nwords ? ends[nwords - 1] : 0;
        int64_t *raw = read_ints(nletters), *first = read_ints(2 * ngens + 1), k, nints = 0;
        int32_t *letters = malloc((size_t)(nletters + 1) * sizeof *letters), *buf;
        int status;
        for (k = 0; k < nletters; k++)
            letters[k] = (int32_t)raw[k];
        status = fa_low_index((int32_t)ngens, letters, ends, first, max_index, node_limit,
                              &buf, &nints);
        printf("%d %lld", status, (long long)nints);
        for (k = 0; k < nints; k++)
            printf(" %d", buf[k]);
        printf("\n");
        if (status == FA_OK)
            fa_release(buf, nints);
        free(ends);
        free(raw);
        free(first);
        free(letters);
    }
    return 0;
}
"""


def _program_input(g, max_index, node_limit):
    rotations = fpgroups._relator_rotations(g)
    words = [rot for rots in rotations for rot in rots]
    ends = np.cumsum([len(w) for w in words], dtype=np.int64)
    first = np.cumsum([0] + [len(rots) for rots in rotations])
    return " ".join(map(str, [g.ngens, len(words), max_index, node_limit, *ends.tolist(),
                              *(x for w in words for x in w), *first.tolist()])) + "\n"


def _flat(tables):
    """The ints fa_low_index hands over for these tables."""
    return [x for t in tables for x in [t.shape[0]] + t.ravel().tolist()]


class TestSplitSearch:
    """The compiled search splits its tree at depth LI_SPLIT = 6 into jobs
    when it may run on more than one CPU.  For E7 to index 16, 164 nodes
    lie above that depth and 361 subtrees below it; for S5 to index 10,
    95 and 41; Z to index 8 finds its tables of index 1 to 5 above it
    and hands two jobs over; Z to index 5 ends above it."""

    CASES = [("E7", 16, 25_658), ("S5", 10, 303), ("Z", 8, 16), ("Z", 5, 10)]

    @staticmethod
    def _group(name):
        return {"E7": e7_weyl_presentation, "S5": lambda: symmetric_presentation(5),
                "Z": lambda: FpGroup(1, ())}[name]()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_gives_the_same_tables_and_limits(self):
        # the same searches in a child pinned to one CPU, which runs the
        # search without a split, and here on every CPU this process has
        code = """if True:
            import json, os, sys
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from flatact import fpgroups as f
            assert f.workers() == 1
            out = []
            for name, k, limit in json.loads(sys.argv[1]):
                g = {"E7": f.e7_weyl_presentation, "S5": lambda: f.symmetric_presentation(5),
                     "Z": lambda: f.FpGroup(1, ())}[name]()
                for lim in (limit, limit - 1):
                    try:
                        tables = f._low_index(f._relator_rotations(g), k, lim)
                        out.append([[t.shape, t.tobytes().hex()] for t in tables])
                    except f.SearchBoundExceeded:
                        out.append(None)
            print(json.dumps(out))
            """
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(self.CASES)],
                              capture_output=True, text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        pinned = json.loads(proc.stdout)
        here = []
        for name, k, limit in self.CASES:
            g = self._group(name)
            for lim in (limit, limit - 1):
                tables = _complete_tables(g, k, "compiled", lim)
                here.append(None if tables is None
                            else [[list(shape), data.hex()] for shape, data in tables])
        assert pinned == here
        assert all(outcome is not None for outcome in here[::2])
        assert all(outcome is None for outcome in here[1::2])

    @pytest.mark.parametrize("name,max_index,nodes", CASES[1:])
    def test_same_nodes_and_tables_as_the_pure_search(self, name, max_index, nodes):
        g = self._group(name)
        pure, visited = _oracle_search(g, max_index, nodes)
        assert visited == nodes and _complete_tables(g, max_index, "compiled", nodes) == pure
        assert _complete_tables(g, max_index, "compiled", nodes - 1) is None

    @pytest.mark.parametrize("limit", [1, 100, 164, 524, 525])
    def test_limit_before_the_split_depth(self, limit):
        # 164 nodes above the split, then 361 jobs, each a node the workers
        # will count: every limit below 525 raises before a worker starts
        g = e7_weyl_presentation()
        for engine in ("pure", "compiled"):
            assert _complete_tables(g, 16, engine, limit) is None

    def test_source_compiles_without_warnings(self):
        proc = subprocess.run(["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                               fpgroups._C_SOURCE], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="the search splits only on more than one CPU")
    def test_split_search_under_thread_sanitizer(self, tmp_path):
        source, exe = tmp_path / "search.c", tmp_path / "search"
        source.write_text(_LOW_INDEX_PROGRAM)
        build = subprocess.run(["cc", "-O1", "-g", "-pthread", "-fsanitize=thread",
                                "-I", os.path.dirname(fpgroups._C_SOURCE),
                                "-o", str(exe), str(source)],
                               capture_output=True, text=True, timeout=120)
        if build.returncode != 0:
            pytest.skip("ThreadSanitizer does not build here: " + build.stderr[-300:])
        cases = [(e7_weyl_presentation(), 16, 25_658), (e7_weyl_presentation(), 16, 25_657),
                 (symmetric_presentation(5), 10, 303), (symmetric_presentation(5), 10, 302)]
        proc = subprocess.run([str(exe)], input="".join(_program_input(*c) for c in cases),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and "ThreadSanitizer" not in proc.stderr, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(cases)
        for line, (g, max_index, limit) in zip(lines, cases):
            status, nints, *ints = map(int, line.split())
            tables = _complete_tables(g, max_index, "compiled", limit)
            if tables is None:
                assert (status, nints) == (1, 0)
            else:
                pure, _ = engine_oracle.low_index(fpgroups._relator_rotations(g), max_index,
                                                  limit)
                assert status == 0 and ints == _flat(pure) and nints == len(ints)
