"""Query-to-automaton compilation: general build and the windowed two-clock
build with synchronous resets."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcer import cel
from tcer.cea import eval_cea_oracle, guard_clocks
from tcer.cel import classify, eval_cel_oracle
from tcer.compiler import ZN, ZX, NotWindowed, compile_cel, compile_windowed
from tcer.model import Interval
from tcer.parser import parse_query, pretty
from tcer.randgen import random_formula, random_stream
from tcer.regions import check_sync

from conftest import PHI1P_TEXT, PHI2_TEXT, make_s0, make_t1


def _rewrite_ge(phi):
    from conftest import rewrite_ge40

    return rewrite_ge40(phi)


def test_single_event_type_build():
    cea = compile_cel(cel.EventType("R"))
    assert len(cea.states) == 2
    assert len(cea.delta) == 1
    assert cea.clocks == frozenset()
    (tr,) = cea.delta
    assert tr.label == frozenset({"R"})


def test_compiled_query_matches_hand_built_automaton():
    s0 = make_s0()
    phi = _rewrite_ge(parse_query(PHI1P_TEXT))  # borderline reading allowed
    cea = compile_cel(phi)
    assert eval_cea_oracle(cea, s0) == eval_cea_oracle(make_t1(">="), s0)


def test_strict_variant_agrees_too():
    s0 = make_s0()
    cea = compile_cel(parse_query(PHI1P_TEXT))
    assert eval_cea_oracle(cea, s0) == eval_cea_oracle(make_t1(">"), s0)


def test_structural_invariants_hold():
    for seed in range(30):
        rng = random.Random(seed)
        cea = compile_cel(random_formula(rng, 3))
        assert cea.no_transition_into_initial()
        assert cea.resets_before_checks()


@pytest.mark.parametrize("seed", range(40))
def test_compilation_soundness(seed):
    rng = random.Random(10_000 + seed)
    phi = random_formula(rng, rng.randint(0, 4))
    cea = compile_cel(phi)
    for _ in range(3):
        stream = random_stream(rng, rng.randint(0, 9))
        assert eval_cea_oracle(cea, stream) == eval_cel_oracle(phi, stream)


# -- windowed build ----------------------------------------------------------


def test_windowed_build_reference_query():
    s0 = make_s0()
    phi = parse_query(PHI2_TEXT)
    cea = compile_windowed(phi)
    assert len(cea.clocks) <= 2
    assert check_sync(cea).verdict == "yes"
    assert eval_cea_oracle(cea, s0) == eval_cel_oracle(phi, s0)


def test_windowed_clock_discipline():
    phi = parse_query(PHI2_TEXT)
    cea = compile_windowed(phi)
    for tr in cea.delta:
        if tr.label:
            assert ZX in tr.resets  # marking transitions restart the gap clock
        if tr.source == cea.initial:
            assert ZN in tr.resets or tr.resets >= {ZX}


def test_simple_body_never_checks_the_window_clock():
    phi = parse_query("A as X ;[0,2] B as Y")  # no window, no projection
    assert classify(phi)[0] == "simple"
    cea = compile_windowed(phi)
    for tr in cea.delta:
        assert ZN not in guard_clocks(tr.guard)


def test_disjoint_nested_windows_compile_to_no_transition():
    """The inner window keeps spans up to 1, the outer only from 2: no
    transition into the finals passes both checks."""
    phi = parse_query("((A as X ; B as Y) within [0,1]) within [2,3]")
    cea = compile_windowed(phi)
    assert (len(cea.states), len(cea.delta)) == (1, 0)
    rng = random.Random(2)
    for _ in range(10):
        assert eval_cel_oracle(phi, random_stream(rng, rng.randint(0, 10))) == frozenset()


def test_windowed_rejects_general_formulas():
    nested = cel.TimedSeq(
        cel.Within(cel.EventType("A"), Interval.of("<=", Fraction(1))),
        Interval.of("<=", Fraction(2)),
        cel.EventType("B"),
    )
    with pytest.raises(NotWindowed):
        compile_windowed(nested)
    # while the reference query is accepted
    compile_windowed(parse_query(PHI1P_TEXT))


def test_swg_query_compiles_to_sync_two_clock():
    rng = random.Random(5)
    any_type = cel.Or(cel.EventType("A"), cel.Or(cel.EventType("B"), cel.EventType("C")))

    def block(var, pred):
        return cel.Filter(cel.As(any_type, var), var, pred)

    from tcer.model import Basic

    phi = cel.Within(
        cel.TimedSeq(
            block("X1", Basic("x", ">=", 1)),
            Interval.of("<=", Fraction(3)),
            block("X2", Basic("x", "<=", 3)),
        ),
        Interval.of("<=", Fraction(5)),
    )
    assert classify(phi)[0] == "swg"
    cea = compile_windowed(phi)
    assert len(cea.clocks) <= 2
    assert check_sync(cea).verdict == "yes"
    for _ in range(10):
        stream = random_stream(rng, rng.randint(0, 10))
        assert eval_cea_oracle(cea, stream) == eval_cel_oracle(phi, stream)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5))
def test_classify_and_compile_windowed_decide_the_fragment_alike(seed, depth):
    """One test, ``cel.outside_windowed``, decides the fragment for both; a
    refusal names its subformula, and every build keeps the two clocks'
    resets a function of the transition: ``zn`` on exactly the initial
    out-transitions, ``zx`` on every marking one."""
    phi = random_formula(random.Random(seed), depth)
    outside = cel.outside_windowed(phi)
    windowed = "windowed" in classify(phi)[1]
    try:
        cea = compile_windowed(phi)
    except NotWindowed as exc:
        assert not windowed and outside is not None
        assert str(exc).endswith(pretty(outside))
        return
    assert windowed and outside is None
    for tr in cea.delta:
        assert (ZN in tr.resets) == (tr.source == cea.initial)
        assert not tr.label or ZX in tr.resets


@pytest.mark.parametrize("seed", range(30))
def test_windowed_soundness_on_random_in_class_formulas(seed):
    rng = random.Random(77_000 + seed)
    for _ in range(20):
        phi = random_formula(rng, rng.randint(0, 4))
        if classify(phi)[0] != "general":
            break
    else:
        pytest.skip("no in-class formula drawn")
    cea = compile_windowed(phi)
    assert len(cea.clocks) <= 2
    for _ in range(3):
        stream = random_stream(rng, rng.randint(0, 8))
        assert eval_cea_oracle(cea, stream) == eval_cel_oracle(phi, stream)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5))
def test_every_state_but_the_initial_leads_to_a_final_state(seed, depth):
    """An operator redirects transitions instead of copying them, and the
    states from which no final state is reachable are dropped: so a run
    stops only in a final state, or in the initial state of an automaton
    that has no match."""
    phi = random_formula(random.Random(seed), depth)
    builds = [compile_cel(phi)]
    if cel.outside_windowed(phi) is None:
        builds.append(compile_windowed(phi))
    for cea in builds:
        live = set(cea.finals)
        while more := {tr.source for tr in cea.delta if tr.target in live} - live:
            live |= more
        assert cea.states - live <= {cea.initial}
        sources = {tr.source for tr in cea.delta}
        assert all(q in sources or q in cea.finals or q == cea.initial for q in cea.states)
