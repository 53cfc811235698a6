"""Coding construction, normalization, tail alphabets, kappa and (m_i)."""

import copy
import math
import pickle
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from conftest import SHRINKING, squaring_coding
from oracles import m_sequence

from toeplitz.boshernitzan import bosh_verdict
from toeplitz.coding import (
    Alphabet,
    Coding,
    CodingEntry,
    GeneratorTail,
    PeriodicTail,
    eventual_alphabet,
    jumps,
    kappa,
    log_scaled_length,
    normalize,
    stabilization_index,
    tail_alphabet,
    verdict_jumps,
)
from toeplitz.errors import AllLettersEqual, EmptyCoding, HorizonExceeded
from toeplitz.presets import grigorchuk, l_grigorchuk, liuqu, parse_coding_spec
from toeplitz.repetitivity import alpha_verdict
from toeplitz.spectral import CoefficientMap, TransferMatrix
from toeplitz.verdicts import Status, Verdict
from toeplitz.words import UndeterminedPart, level, word_prefix


def entries(alphabet, spec):
    return tuple(
        CodingEntry(alphabet.by_name(n), p) for n, p in spec
    )


class TestNormalize:
    def test_repeated_preperiod_letter_merges_multiplicatively(self):
        ab = Alphabet.from_names("bxy")
        raw = Coding(
            ab,
            entries(ab, [("b", 2), ("b", 2), ("b", 2)]),
            PeriodicTail(entries(ab, [("x", 2), ("y", 2)])),
        )
        merged = normalize(raw)
        assert merged.preperiod == entries(ab, [("b", 8)])
        assert merged.tail.entries == entries(ab, [("x", 2), ("y", 2)])

    def test_grigorchuk_is_a_fixed_point(self, grig):
        assert normalize(grig) == grig

    def test_wrap_merge_rotates_into_preperiod(self):
        ab = Alphabet.from_names("axy")
        raw = Coding(
            ab,
            entries(ab, [("a", 2)]),
            PeriodicTail(entries(ab, [("x", 2), ("y", 2), ("x", 3)])),
        )
        merged = normalize(raw)
        assert merged.preperiod == entries(ab, [("a", 2), ("x", 2), ("y", 2)])
        assert merged.tail.entries == entries(ab, [("x", 6), ("y", 2)])

    def test_single_letter_tail_rejected(self):
        ab = Alphabet.from_names("ax")
        raw = Coding(ab, (), PeriodicTail(entries(ab, [("x", 2), ("x", 3)])))
        with pytest.raises(AllLettersEqual):
            normalize(raw)

    def test_junction_merge_rotates_cycle(self):
        ab = Alphabet.from_names("xy")
        raw = Coding(
            ab,
            entries(ab, [("x", 2)]),
            PeriodicTail(entries(ab, [("x", 3), ("y", 2)])),
        )
        merged = normalize(raw)
        assert merged.preperiod == entries(ab, [("x", 6)])
        assert merged.tail.entries == entries(ab, [("y", 2), ("x", 3)])
        assert merged.is_normalized

    def test_idempotent_and_same_word_on_battery(self, battery):
        for c in battery:
            n = normalize(c)
            assert normalize(n) == n
            length = 64
            assert word_prefix(c, length) == word_prefix(n, length)


class TestTailAlphabet:
    def test_grigorchuk_full_alphabet_at_zero(self, grig):
        assert {grig.alphabet.names[l] for l in tail_alphabet(grig, 0)} == set("axyz")

    def test_grigorchuk_eventual_from_one(self, grig):
        assert {grig.alphabet.names[l] for l in tail_alphabet(grig, 1)} == set("xyz")
        assert stabilization_index(grig) == 1

    def test_stabilized_tail_equals_eventual(self, battery):
        for c in battery:
            n_ev = stabilization_index(c)
            ev = eventual_alphabet(c)
            for k in range(n_ev, n_ev + 6):
                assert tail_alphabet(c, k) == ev

    def test_nested(self, battery):
        for c in battery:
            for k in range(6):
                assert tail_alphabet(c, k + 1) <= tail_alphabet(c, k)

    def test_generator_letter_outside_recurrent_refuses_at_build(self):
        ab = Alphabet.from_names("xyz")
        leaky = entries(ab, [("x", 2), ("y", 2)] * 4 + [("z", 2)])
        with pytest.raises(ValueError, match="outside its declared recurrent"):
            GeneratorTail("leaky", leaky, recurrent=frozenset({0, 1}))


class TestKappa:
    def test_grigorchuk_shift_by_three(self, grig):
        assert [kappa(grig, k) for k in range(8)] == [k + 3 for k in range(8)]

    def test_two_letter_shift_by_two(self, two_letter):
        assert [kappa(two_letter, k) for k in range(8)] == [k + 2 for k in range(8)]

    def test_liuqu_first_gap_is_seven(self, liu_qu):
        # letters (ab)c(ab)^2 d...: from index 1 all four letters are first
        # assembled at the d in position 7
        assert kappa(liu_qu, 0) == 7
        assert kappa(liu_qu, 8) == 23

    def test_monotone_and_bounded_below(self, battery, grig, liu_qu):
        for c in list(battery) + [grig, liu_qu]:
            values = [kappa(c, k) for k in range(24)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            for k in range(24):
                assert kappa(c, k) >= k + len(tail_alphabet(c, k + 1))

    def test_beyond_generator_horizon(self):
        from toeplitz.presets import liuqu

        short = liuqu(horizon=12)
        with pytest.raises(HorizonExceeded):
            kappa(short, 40)


class TestMSequence:
    def test_jumps_are_the_kappa_values(self, battery, grig, liu_qu):
        codings = [*battery, grig, liu_qu, squaring_coding(),
                   *map(parse_coding_spec, SHRINKING)]
        for c in codings:
            triples = list(islice(jumps(c), 8))
            for i, (m, top, before) in enumerate(triples, start=1):
                assert (m, top, before) == \
                    (m_sequence(c, i), kappa(c, m), kappa(c, m - 1))
            # the m_i are exactly the indices where kappa increases
            assert [m for m, _, _ in triples] == [
                k for k in range(1, triples[-1][0] + 1)
                if kappa(c, k) > kappa(c, k - 1)]

    def test_grigorchuk_identity(self, grig):
        assert [m_sequence(grig, i) for i in range(7)] == list(range(7))

    def test_two_letter_step_one(self, two_letter):
        ms = [m_sequence(two_letter, i) for i in range(7)]
        assert all(b - a == 1 for a, b in zip(ms, ms[1:]))

    def test_three_letter_recursion(self):
        # |A_ev| = 3 with the alphabet stabilized from the start:
        # m_{i+1} = kappa(m_i) - 2
        c = parse_coding_spec("| x:2 y:3 z:2 y:4")
        for i in range(6):
            assert m_sequence(c, i + 1) == kappa(c, m_sequence(c, i)) - 2

    def test_liuqu_hits_separator_positions(self, liu_qu):
        assert [m_sequence(liu_qu, i) for i in range(9)] == \
            [0, 2, 7, 14, 23, 34, 47, 62, 79]

    def test_kappa_constant_between_jumps(self, battery):
        for c in battery[:12]:
            for i in range(4):
                lo, hi = m_sequence(c, i), m_sequence(c, i + 1)
                assert kappa(c, lo) == kappa(c, hi - 1)
                assert kappa(c, hi) > kappa(c, lo)

    def test_letter_recurrence_characterizes_jumps(self, battery, grig):
        for c in list(battery[:12]) + [grig]:
            ms = {m_sequence(c, i) for i in range(1, 8)}
            top = max(ms)
            for k in range(1, top + 1):
                assert (c.letter(k) == c.letter(kappa(c, k))) == (k in ms)

    def test_backward_recursion_once_stabilized(self, battery, grig):
        # the max-j recursion is equivalent to the jump definition only after
        # the tail alphabet stops shrinking
        for c in list(battery[:12]) + [grig]:
            n_ev = stabilization_index(c)
            for i in range(6):
                m = m_sequence(c, i)
                if m < n_ev:
                    continue
                top = kappa(c, m)
                target = tail_alphabet(c, m + 1)
                seen: set[int] = set()
                j = top
                while True:
                    seen.add(c.letter(j))
                    if seen == target:
                        break
                    j -= 1
                assert m_sequence(c, i + 1) == j

    def test_log_scaled_length_adds_left_to_right(self, liu_qu):
        # the same bits on every Python; `sum` compensates from 3.12 on
        logs = [math.log(liu_qu.period(j)) for j in range(64)]
        assert [log_scaled_length(liu_qu, k) for k in range(64)] == \
            list(accumulate(logs))

    def test_cycle_detector_bound(self, battery):
        for c in battery:
            start, period = verdict_jumps(c, 0)[1]
            bound = 2 * (len(c.preperiod) + len(c.tail.entries))
            assert start + period <= bound
            # the detected cycle really repeats all m-derived data
            for i in range(start, start + period):
                gap_a = m_sequence(c, i + 1) - m_sequence(c, i)
                gap_b = m_sequence(c, i + 1 + period) - m_sequence(c, i + period)
                assert gap_a == gap_b
                assert kappa(c, m_sequence(c, i)) - m_sequence(c, i) == \
                    kappa(c, m_sequence(c, i + period)) - m_sequence(c, i + period)


class TestValidation:
    @pytest.mark.parametrize("names, message", [
        ("", "alphabet size"),
        ([f"l{i}" for i in range(256)], "alphabet size"),
        ("xyx", "unique"),
    ], ids=["empty", "256-names", "duplicate"])
    def test_bad_alphabet(self, names, message):
        with pytest.raises(ValueError, match=message):
            Alphabet.from_names(names)

    def test_alphabet_record_helpers_round_trip(self):
        ab = Alphabet.from_names("ab")
        assert ab._asdict() == {"names": ("a", "b")}
        assert Alphabet(**ab._asdict()) == ab
        assert ab._replace(names=("x", "y")) == Alphabet.from_names("xy")
        assert ab._replace() == ab
        with pytest.raises(ValueError, match="unique"):
            ab._replace(names=("x", "x"))

    def test_largest_alphabet(self):
        assert len(Alphabet.from_names(f"l{i}" for i in range(255)).names) == 255

    @pytest.mark.parametrize("pre, tail, recurrent", [
        ((-1,), (0, 1), None),
        ((), (0, 2), None),
        ((), (0, 1), {0, 1, 7}),
    ], ids=["negative-preperiod-letter", "tail-letter-past-the-end",
            "generator-letter-past-the-end"])
    def test_entry_outside_alphabet(self, pre, tail, recurrent):
        ab = Alphabet.from_names("xy")
        entries = tuple(CodingEntry(l, 2) for l in tail)
        with pytest.raises(ValueError, match="not in alphabet"):
            Coding(ab, tuple(CodingEntry(l, 2) for l in pre),
                   PeriodicTail(entries) if recurrent is None
                   else GeneratorTail("g", entries * 5, frozenset(recurrent)))

    @pytest.mark.parametrize("record, args, error, message", [
        (Alphabet, (("x", "x"),), ValueError, "unique"),
        (CodingEntry, (0, 1), ValueError, "period must be >= 2"),
        (PeriodicTail, ((),), EmptyCoding, "at least one entry"),
        (GeneratorTail, ("none", (), frozenset({0, 1})), EmptyCoding,
         "no entries"),
        (Coding, (Alphabet.from_names("xy"), (CodingEntry(2, 2),),
                  PeriodicTail((CodingEntry(0, 2), CodingEntry(1, 2)))),
         ValueError, "letter 2 not in alphabet"),
        (UndeterminedPart, (4, 4), ValueError, "offset must lie"),
        (UndeterminedPart, (4, -1), ValueError, "offset must lie"),
        (CoefficientMap, (Alphabet.from_names("xy"), (1,), (0, 0)),
         ValueError, r"one \(p, q\) pair"),
        (CoefficientMap, (Alphabet.from_names("xy"), (1, 1), (0, 0, 0)),
         ValueError, r"one \(p, q\) pair"),
    ], ids=["duplicate-names", "period-one", "empty-periodic-tail",
            "empty-generator-tail", "preperiod-letter-past-the-end",
            "offset-at-modulus", "negative-offset", "short-p", "long-q"])
    def test_constructor_checks(self, record, args, error, message):
        with pytest.raises(error, match=message) as built:
            record(*args)
        with pytest.raises(error) as made:
            record._make(args)
        assert str(made.value) == str(built.value)

    @pytest.mark.parametrize("build, fields, error, message", [
        (lambda: Alphabet.from_names("xy"), {"names": ("x", "x")},
         ValueError, "unique"),
        (lambda: CodingEntry(0, 2), {"period": 1}, ValueError,
         "period must be >= 2"),
        (lambda: grigorchuk().tail, {"entries": ()}, EmptyCoding,
         "at least one entry"),
        (lambda: liuqu(8).tail, {"recurrent": frozenset({0, 1})}, ValueError,
         "outside its declared recurrent alphabet"),
        (grigorchuk, {"preperiod": (CodingEntry(9, 2),)}, ValueError,
         "letter 9 not in alphabet"),
        (lambda: UndeterminedPart(4, 1), {"offset": 9}, ValueError,
         "offset must lie"),
        (lambda: CoefficientMap(Alphabet.from_names("xy"), (1, 1), (0, 0)),
         {"p_values": (1, 0)}, ValueError, "must be nonzero"),
    ], ids=["alphabet", "coding-entry", "periodic-tail", "generator-tail",
            "coding", "undetermined-part", "coefficient-map"])
    def test_replace_checks(self, build, fields, error, message):
        record = build()
        with pytest.raises(error, match=message) as built:
            type(record)(**{**record._asdict(), **fields})
        replacers = [record._replace]
        if hasattr(copy, "replace"):  # Python 3.13 and later
            replacers.append(lambda **kw: copy.replace(record, **kw))
        for replace in replacers:
            with pytest.raises(error) as replaced:
                replace(**fields)
            assert str(replaced.value) == str(built.value)


RECORDS = {  # label -> (build, a field to assign)
    "alphabet": (lambda: Alphabet.from_names("xyz"), "names"),
    "coding-entry": (lambda: CodingEntry(1, 3), "period"),
    "periodic-tail": (lambda: grigorchuk().tail, "entries"),
    "generator-tail": (lambda: liuqu(8).tail, "recurrent"),
    "undetermined-part": (lambda: UndeterminedPart(6, 5), "offset"),
    "grigorchuk": (grigorchuk, "tail"),
    "liuqu": (liuqu, "alphabet"),
    "level": (lambda: level(grigorchuk(), 10), "p"),
    "verdict": (lambda: Verdict(Status.SATISFIED, "exact", (2, 2), (1, 1)),
                "status"),
    "bosh-verdict": (lambda: bosh_verdict(liuqu()), "liminf_criterion"),
    "alpha-verdict": (lambda: alpha_verdict(liuqu(), Fraction(3, 2)), "alpha"),
    "coefficient-map": (lambda: CoefficientMap.from_names(
        grigorchuk().alphabet,
        q={"a": Fraction(1, 2), "x": 0, "y": 1, "z": -1}), "q_values"),
    "transfer-matrix": (lambda: TransferMatrix(Fraction(1, 3), -1, 1, 0.5),
                        "d"),
}


class TestRecords:
    @pytest.mark.parametrize("label", RECORDS)
    def test_pickle_and_deepcopy_round_trip(self, label):
        record = RECORDS[label][0]()
        for back in pickle.loads(pickle.dumps(record)), copy.deepcopy(record):
            # repr names the class of every nested record too
            assert back == record and repr(back) == repr(record)

    @pytest.mark.parametrize("label", RECORDS)
    def test_make_and_replace_round_trip(self, label):
        # a `__new__` whose parameters drift from the field order fails here
        record = RECORDS[label][0]()
        for back in type(record)._make(tuple(record)), record._replace():
            assert type(back) is type(record) and back == record

    @pytest.mark.parametrize("label", RECORDS)
    def test_immutable(self, label):
        build, field = RECORDS[label]
        record = build()
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, object())
        with pytest.raises(AttributeError):
            record.extra = None
        assert getattr(record, field) is before


def named_entries(c):
    """(name, period) of the preperiod and the tail entries of `c`."""
    return [[(c.alphabet.names[e.letter], e.period) for e in part]
            for part in (c.preperiod, c.tail.entries)]


class TestPresets:
    def test_parse_round_trip(self, grig, battery):
        assert parse_coding_spec(grig.spec_string()) == grig
        for c in battery:
            assert named_entries(parse_coding_spec(c.spec_string())) == \
                named_entries(normalize(c))

    def test_l_grigorchuk_periods_are_powers_of_two(self):
        c = l_grigorchuk(1, 2)
        ps = [c.period(k) for k in range(1, 13)]
        assert ps == [2, 4, 2, 4, 2, 4] * 2
        assert {c.alphabet.names[l] for l in eventual_alphabet(c)} == set("xyz")

    def test_generator_tail_with_new_preperiod_letter(self):
        c = parse_coding_spec("e:3 | @liuqu")
        assert list(c.alphabet.names) == list("abcde")
        assert c.tail.recurrent == frozenset({0, 1, 2, 3})
        assert [(c.alphabet.names[e.letter], e.period) for e in c.preperiod] == [("e", 3)]
        assert [c.alphabet.names[e.letter] for e in c.tail.entries[:8]] == list("abcababd")

    def test_generator_tail_merges_at_the_junction(self):
        # the preperiod a:3 absorbs liuqu's leading a:2
        c = parse_coding_spec("a:3 | @liuqu")
        assert list(c.alphabet.names) == list("abcd")
        assert [(c.alphabet.names[e.letter], e.period) for e in c.preperiod] == [("a", 6)]
        assert [c.alphabet.names[e.letter] for e in c.tail.entries[:7]] == list("bcababd")
        assert {e.period for e in c.tail.entries} == {2}

    def test_eventually_periodic_kappa_gaps(self, battery):
        # kappa(k) - k settles into a cycle once k is past the preperiod
        for c in battery[:10]:
            pre, t = len(c.preperiod), len(c.tail.entries)
            gaps = [kappa(c, k) - k for k in range(pre, pre + 3 * t)]
            assert gaps[:t] == gaps[t:2 * t] == gaps[2 * t:3 * t]
