import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtmseq

from gtmseq import (
    KappaSpec,
    KernelState,
    a_of_n,
    a_values,
    kernel_brute_force,
    kernel_explore,
)
from gtmseq.errors import WindowExceededError
from conftest import alternating_spec, random_spec, zero_spec


def state_denotation(spec, state, inputs):
    """Evaluate n -> a_shift(n) + offset mod L for each n in inputs."""
    out = []
    for n in inputs:
        total = state.offset
        y = 0
        v = n
        while v:
            v, d = divmod(v, spec.k)
            if d:
                total += spec.kappa(d, y + state.shift)
            y += 1
        out.append(total % spec.L)
    return tuple(out)


class TestKernelExplore:
    def test_thue_morse_two_states(self, tm):
        result = kernel_explore(tm)
        assert result.complete
        assert len(result) == 2
        assert sorted(s.offset for s in result.states) == [0, 1]

    def test_zero_map_single_state(self):
        result = kernel_explore(zero_spec(3, 3))
        assert result.complete
        assert len(result) == 1

    def test_alternating_state_bound(self):
        spec = alternating_spec()
        result = kernel_explore(spec)
        assert result.complete
        assert len(result) <= (spec.preperiod + spec.period) * spec.L

    def test_state_bound_random(self, rng):
        for _ in range(15):
            spec = random_spec(rng, L_max=5, k_max=4, y0_max=2, p_max=3)
            result = kernel_explore(spec)
            assert result.complete
            assert len(result) <= (spec.preperiod + spec.period) * spec.L

    def test_transitions_consistent(self, rng):
        # following digits of n through the table reproduces a(n)
        for _ in range(8):
            spec = random_spec(rng, k_max=3)
            result = kernel_explore(spec)
            for n in range(200):
                state = 0
                v = n
                while v:
                    v, d = divmod(v, spec.k)
                    state = result.transitions[state][d]
                assert result.outputs[state] == a_of_n(spec, n)

    def test_non_minimal_declaration_same_automaton(self, rng):
        # the same sequences declared with an extra preperiod and a
        # repeated period block explore to the same automaton
        for _ in range(20):
            spec = random_spec(rng, L_max=4, k_max=4, y0_max=2, p_max=3)
            pre = spec.preperiod + rng.randint(1, 3)
            period = spec.period * rng.randint(2, 3)
            columns = [spec.column(y) for y in range(pre + period)]
            padded = KappaSpec(
                L=spec.L, k=spec.k, preperiod=pre, period=period,
                table=tuple(tuple(col[s] for col in columns) for s in range(spec.k - 1)),
            )
            minimal, explored = kernel_explore(spec), kernel_explore(padded)
            assert explored.complete
            assert len(explored) == len(minimal)
            assert explored.transitions == minimal.transitions
            assert explored.outputs == minimal.outputs
            # distinct canonical shifts have distinct column streams; both
            # streams are periodic with the declared period from y = pre on
            y0, p = padded.normal_form
            streams = {
                tuple(padded.column(e + y) for y in range(pre + period))
                for e in range(y0 + p)
            }
            assert len(streams) == y0 + p
            for state in explored.states:
                assert padded.canonical_column(state.shift) == state.shift

    def test_max_states_inconclusive(self, tm):
        result = kernel_explore(tm, max_states=1)
        assert not result.complete
        # the child (0, 1) of the first row would be a second state
        assert result.states == (KernelState(0, 0),)
        assert result.transitions == ()
        assert result.outputs == (0,)

    def test_max_states_drops_unfinished_row(self):
        spec = KappaSpec(L=3, k=3, preperiod=0, period=1, table=((1,), (2,)))
        result = kernel_explore(spec, max_states=2)
        assert not result.complete
        # the root's row adds (0, 1) and (0, 2), one past the cap: both go
        assert result.states == (KernelState(0, 0),)
        assert result.transitions == ()
        targets = {child for row in result.transitions for child in row}
        assert targets == set(range(1, len(result.states)))

    def test_finite_window_inconclusive(self):
        spec = KappaSpec(L=2, k=2, preperiod=0, period=None,
                         table=((1, 0, 1),), window=3)
        result = kernel_explore(spec)
        assert not result.complete
        # state 5 = (3, 0) reads past the window: it adds no child and no row
        assert result.states == tuple(
            KernelState(shift, offset)
            for shift, offset in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
        )
        assert result.transitions == ((1, 2), (3, 3), (4, 4), (5, 6), (6, 5))
        assert result.outputs == (0, 0, 1, 0, 1, 0, 1)
        targets = {child for row in result.transitions for child in row}
        assert targets == set(range(1, len(result.states)))


def moore_classes(outputs, transitions):
    """Moore partition refinement: the number of classes of equivalent states."""
    block = list(outputs)
    while True:
        signatures = [
            (block[i],) + tuple(block[t] for t in row)
            for i, row in enumerate(transitions)
        ]
        renumber = {sig: n for n, sig in enumerate(dict.fromkeys(signatures))}
        if len(renumber) == len(set(block)):
            return len(renumber)
        block = [renumber[sig] for sig in signatures]


def complete_closures(rng, count):
    """(spec, result) for random complete closures, a third declared non-minimally."""
    for trial in range(count):
        spec = random_spec(rng, L_max=8, k_max=5, y0_max=4, p_max=5)
        if trial % 3 == 0:
            spec = redeclared(spec, rng)
        result = kernel_explore(spec)
        assert result.complete
        yield spec, result


class TestMinimality:
    def test_moore_minimal(self, rng):
        for _, result in complete_closures(rng, 300):
            assert moore_classes(result.outputs, result.transitions) == len(result)

    def test_moore_oracle_merges(self):
        # the Thue-Morse DFAO with a redundant copy of state 0 (state 2)
        assert moore_classes((0, 1, 0), ((2, 1), (1, 2), (0, 1))) == 2

    def test_distinct_states_separated(self, rng):
        separated = 0
        for spec, result in complete_closures(rng, 300):
            y0, p = spec.normal_form
            inputs = [0] + [s * spec.k**w for w in range(y0 + p) for s in range(1, spec.k)]
            values = [state_denotation(spec, st, inputs) for st in result.states]
            assert len(set(values)) == len(values)
            separated += len(values) * (len(values) - 1) // 2
        assert separated > 0


class TestIsNPeriodic:
    """The minimal (preperiod, period) of the column stream: ``normal_form``."""

    def test_thue_morse(self, tm):
        assert tm.normal_form == (0, 1)

    def test_reduces_declared_period(self):
        spec = KappaSpec(L=2, k=2, preperiod=0, period=4, table=((0, 1, 0, 1),))
        assert spec.normal_form == (0, 2)

    def test_finite_window_absent(self):
        spec = KappaSpec(L=2, k=2, preperiod=0, period=None, table=((1,),), window=1)
        assert spec.normal_form is None

    def test_nontrivial_preperiod(self):
        spec = KappaSpec(L=3, k=2, preperiod=2, period=2, table=((2, 0, 1, 1),))
        assert spec.normal_form == (2, 1)

    def test_reduces_declared_preperiod(self):
        spec = KappaSpec(L=2, k=2, preperiod=2, period=1, table=((1, 1, 1),))
        assert spec.normal_form == (0, 1)

    def test_reduces_preperiod_into_rotated_period(self):
        # 1, 0, 1, 0, ...: the declared preperiod column starts the cycle
        spec = KappaSpec(L=2, k=2, preperiod=1, period=2, table=((1, 0, 1),))
        assert spec.normal_form == (0, 2)

    def test_reduces_both_partially(self):
        # 2, 0, 1, 0, 1, ...: one column of preperiod is genuine
        spec = KappaSpec(L=3, k=2, preperiod=3, period=4, table=((2, 0, 1, 0, 1, 0, 1),))
        assert spec.normal_form == (1, 2)

    def test_multirow_columns_compared_whole(self):
        # row 1 alone would reduce to (0, 1); row 2 keeps the preperiod
        spec = KappaSpec(L=2, k=3, preperiod=1, period=1, table=((1, 1), (0, 1)))
        assert spec.normal_form == (1, 1)


class TestKernelBruteForce:
    def test_thue_morse_two_groups(self, tm):
        groups = kernel_brute_force(tm, 6, 2**12)
        assert len(groups) == 2

    def test_zero_map_one_group(self):
        groups = kernel_brute_force(zero_spec(2, 2), 4, 256)
        assert len(groups) == 1

    def test_group_count_lower_bounds_states(self, rng):
        for _ in range(6):
            spec = random_spec(rng, L_max=4, k_max=3, y0_max=1, p_max=2)
            groups = kernel_brute_force(spec, 4, 512)
            explored = kernel_explore(spec)
            assert len(groups) <= len(explored)

    def test_groups_match_state_denotations(self):
        spec = alternating_spec()
        horizon = 512
        groups = kernel_brute_force(spec, 5, horizon)
        explored = kernel_explore(spec)
        denotations = {
            state_denotation(spec, state, range(horizon)) for state in explored.states
        }
        for prefix in groups:
            assert prefix in denotations

    def test_decomposition_identity(self, rng):
        # a(k**e * n + j) == a_shift_e(n) + a(j) mod L
        for _ in range(5):
            spec = random_spec(rng, k_max=3, y0_max=1, p_max=2)
            for e in range(4):
                scale = spec.k**e
                for j in {0, scale // 2, scale - 1}:
                    lhs = a_values(spec, scale * np.arange(64) + j)
                    shift_vals = []
                    for n in range(64):
                        total = 0
                        v, y = n, 0
                        while v:
                            v, d = divmod(v, spec.k)
                            if d:
                                total += spec.kappa(d, y + e)
                            y += 1
                        shift_vals.append(total)
                    rhs = [(sv + a_of_n(spec, j)) % spec.L for sv in shift_vals]
                    assert list(lhs) == rhs

    def test_budget(self, tm, monkeypatch):
        monkeypatch.setenv("GTMSEQ_BUDGET", "100")
        from gtmseq.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            kernel_brute_force(tm, 10, 1024)


def brute_force_definition(spec, e_max, horizon):
    """{prefix: [(e, j), ...]} built subsequence by subsequence from a_of_n."""
    groups = {}
    for e in range(e_max + 1):
        scale = spec.k**e
        for j in range(scale):
            prefix = tuple(a_of_n(spec, scale * n + j) for n in range(horizon))
            groups.setdefault(prefix, []).append((e, j))
    return groups


def redeclared(spec, rng):
    """The same spec declared with a longer preperiod and a repeated period."""
    pre = spec.preperiod + rng.randint(0, 2)
    period = spec.period * rng.randint(1, 3)
    columns = [spec.column(y) for y in range(pre + period)]
    return KappaSpec(
        L=spec.L, k=spec.k, preperiod=pre, period=period,
        table=tuple(tuple(col[s] for col in columns) for s in range(spec.k - 1)),
    )


class TestKernelBruteForceDefinition:
    def test_matches_definition(self, rng):
        e_limit = {2: 5, 3: 4, 4: 3, 5: 3}
        for trial in range(24):
            spec = random_spec(rng, L_max=4, k_max=5, y0_max=2, p_max=3)
            if trial % 2:
                spec = redeclared(spec, rng)
            e_max = rng.randint(0, e_limit[spec.k])
            horizon = rng.randint(1, 40)
            got = kernel_brute_force(spec, e_max, horizon)
            want = brute_force_definition(spec, e_max, horizon)
            assert list(got.items()) == list(want.items())
            for prefix, members in got.items():
                assert type(prefix) is tuple and len(prefix) == horizon
                assert all(type(v) is int for v in prefix)
                assert all(type(e) is int and type(j) is int for e, j in members)

    def test_finite_window(self):
        spec = KappaSpec(L=3, k=3, preperiod=0, period=None,
                         table=((1, 2, 0), (2, 0, 1)), window=3)
        # k**e_max * horizon = 27 indices: exactly the window
        got = kernel_brute_force(spec, 2, 3)
        assert list(got.items()) == list(brute_force_definition(spec, 2, 3).items())
        with pytest.raises(WindowExceededError):
            kernel_brute_force(spec, 2, 4)
        with pytest.raises(WindowExceededError):
            kernel_brute_force(spec, 3, 2)


def tuple_grouping(spec, e_max, horizon):
    """kernel_brute_force's grouping with a tuple key built per column."""
    word = a_values(spec, np.arange(spec.k**e_max * horizon, dtype=np.int64))
    groups = {}
    for e in range(e_max + 1):
        scale = spec.k**e
        columns = word[: scale * horizon].reshape(horizon, scale).T
        for j, column in enumerate(columns):
            groups.setdefault(tuple(column.tolist()), []).append((e, j))
    return groups


class TestKernelBruteForceGrouping:
    def test_matches_tuple_grouping(self, rng):
        for trial in range(40):
            spec = random_spec(rng, L_max=5, k_max=5, y0_max=3, p_max=3)
            if trial % 2:
                spec = redeclared(spec, rng)
            horizon = rng.choice([1, 2, 7, 64, 300, 1024])
            e_max = 0
            while spec.k ** (e_max + 1) * horizon <= 40_000 and e_max < 6:
                e_max += 1
            got = kernel_brute_force(spec, e_max, horizon)
            assert list(got.items()) == list(tuple_grouping(spec, e_max, horizon).items())

    def test_peak_memory_k5(self):
        # 5**5 * 4096 = 12.8M values: the index and value arrays alone
        # take 205 MB, and a_values adds only slab-sized work arrays.
        code = (
            "import resource\n"
            "from gtmseq import KappaSpec, kernel_brute_force\n"
            "spec = KappaSpec(L=3, k=5, preperiod=1, period=2,\n"
            "                 table=((1, 0, 2), (2, 2, 0), (0, 1, 1), (1, 2, 2)))\n"
            "print(len(kernel_brute_force(spec, 5, 4096)))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = dict(os.environ, GTMSEQ_BUDGET="20000000", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(gtmseq.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        groups, maxrss = map(int, child.stdout.split())
        assert groups == 7
        # ru_maxrss counts bytes on macOS and KiB elsewhere.
        assert maxrss / (2**20 if sys.platform == "darwin" else 2**10) <= 300
