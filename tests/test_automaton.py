import time
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtmseq import (
    KappaSpec,
    KernelState,
    a_of_n,
    a_values,
    kernel_brute_force,
    kernel_explore,
    parse_spec,
    subsequence_kernel,
)
from gtmseq.automaton import _STATE_WORDS
from gtmseq.errors import BudgetExceededError, WindowExceededError
from gtmseq.kappa import _numeral_length
from conftest import (
    alternating_spec,
    kernel_explore_literal,
    random_spec,
    run_child,
    zero_spec,
)


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

    @pytest.mark.parametrize("max_states", [0, -5])
    def test_max_states_below_one_rejected(self, tm, max_states):
        with pytest.raises(ValueError, match=f"^max_states must be >= 1, got {max_states}$"):
            kernel_explore(tm, max_states)

    def test_budget_bounds_states_exactly(self, tm, monkeypatch):
        # the Thue-Morse closure has 2 states of 40 + k = 42 words: a budget
        # of 84 admits it, 83 does not
        monkeypatch.setenv("GTMSEQ_BUDGET", "84")
        assert len(kernel_explore(tm)) == 2
        monkeypatch.setenv("GTMSEQ_BUDGET", "83")
        with pytest.raises(BudgetExceededError, match="84 values exceed budget 83"):
            kernel_explore(tm)

    @pytest.mark.parametrize("k", [2, 16])
    def test_peak_memory_within_budget(self, k):
        # With L = 2**57 and one letter c for every digit, each row adds the
        # one new state offset + c, so only the budget stops the closure:
        # its states and their rows of k children fit in the charged words.
        budget = 4_000_000
        code = (
            "from gtmseq import KappaSpec, kernel_explore\n"
            "from gtmseq.errors import BudgetExceededError\n"
            f"spec = KappaSpec(L=2**57, k={k}, preperiod=0, period=1,\n"
            f"                 table=((2**56 + 12345,),) * {k - 1})\n"
            "try:\n"
            "    kernel_explore(spec, 2**62)\n"
            "except BudgetExceededError:\n"
            "    print('refused')\n"
        )
        _, import_mb = run_child("import gtmseq\n")
        (outcome,), peak_mb = run_child(code, GTMSEQ_BUDGET=str(budget))
        assert outcome == "refused"
        assert peak_mb - import_mb <= budget * 8 / 2**20

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


@st.composite
def closure_cases(draw):
    """(spec, max_states): periodic or finite-window, L from 2 to 2**57."""
    L, k = draw(st.sampled_from([2, 3, 255, 2**57])), draw(st.integers(2, 4))
    if draw(st.booleans()):
        y0, p, cols = 0, None, draw(st.integers(1, 5))
    else:
        y0, p = draw(st.integers(0, 3)), draw(st.integers(1, 4))
        cols = y0 + p
    letters = st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1))
    table = tuple(
        tuple(draw(st.lists(letters, min_size=cols, max_size=cols))) for _ in range(k - 1)
    )
    spec = KappaSpec(L=L, k=k, preperiod=y0, period=p, table=table,
                     window=None if p else cols)
    max_states = draw(st.one_of(st.sampled_from([1, 2, 3, 4096]), st.integers(1, 300)))
    return spec, max_states


def closure_outcome(explore, spec, max_states):
    """The KernelResult, or the type and message of the error raised."""
    try:
        return explore(spec, max_states)
    except Exception as exc:
        return type(exc), str(exc)


class TestKernelExploreLiteral:
    @settings(max_examples=200, deadline=None)
    @given(closure_cases(), st.sampled_from([None, -1, 0, 1]))
    def test_matches_literal_closure(self, case, budget_delta):
        # budget_delta puts GTMSEQ_BUDGET one word below, at or one word
        # above the states' charge; None keeps the default budget.
        spec, max_states = case
        with pytest.MonkeyPatch.context() as mp:
            if budget_delta is not None:
                count = len(kernel_explore_literal(spec, max_states).states)
                mp.setenv("GTMSEQ_BUDGET", str(count * (_STATE_WORDS + spec.k) + budget_delta))
            want = closure_outcome(kernel_explore_literal, spec, max_states)
            got = closure_outcome(kernel_explore, spec, max_states)
        assert got == want


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


def run_digits(result, k, n):
    """The state the DFAO reaches from state 0 on the base-k digits of n, low first."""
    state = 0
    while n:
        n, d = divmod(n, k)
        state = result.transitions[state][d]
    return state


@st.composite
def subsequence_cases(draw):
    """(spec, N, l): a periodic spec with k <= 4 and L <= 4, N up to 10**100, l <= 12."""
    L, k = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    y0, p = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, L - 1), min_size=y0 + p, max_size=y0 + p)
    spec = KappaSpec(L=L, k=k, preperiod=y0, period=p,
                     table=tuple(tuple(draw(row)) for _ in range(k - 1)))
    N = draw(st.one_of(st.integers(0, 40), st.integers(0, 10**100)))
    return spec, N, draw(st.integers(1, 12))


class TestSubsequenceKernel:
    @settings(max_examples=80, deadline=None)
    @given(subsequence_cases(), st.lists(st.integers(0, 10**12), max_size=6))
    def test_outputs_match_a_of_n_within_bound(self, case, ns):
        # the state bound (len_k(N) + y0 + p) * (l + 1) * L of the docstring
        spec, N, l = case
        result = subsequence_kernel(spec, N, l, 10**6)
        y0, p = spec.normal_form
        assert result.complete
        assert len(result) <= (_numeral_length(N, spec.k) + y0 + p) * (l + 1) * spec.L
        for n in [0, 1, spec.k, 2 * spec.k + 1] + ns:
            assert result.outputs[run_digits(result, spec.k, n)] == a_of_n(spec, N + l * n)

    @pytest.mark.parametrize("N, l, max_states, message", [
        (-1, 1, 4096, "^need N >= 0 and l >= 1, got N=-1, l=1$"),
        (0, 0, 4096, "^need N >= 0 and l >= 1, got N=0, l=0$"),
        (5, 3, 0, "^max_states must be >= 1, got 0$"),
    ])
    def test_arguments_rejected(self, tm, N, l, max_states, message):
        with pytest.raises(ValueError, match=message):
            subsequence_kernel(tm, N, l, max_states)

    @pytest.mark.parametrize("max_states", [1, 2, 5, 17, 40])
    def test_max_states_drops_unfinished_row(self, max_states):
        spec = KappaSpec(L=3, k=3, preperiod=1, period=2, table=((1, 2, 0), (2, 0, 1)))
        result = subsequence_kernel(spec, 10**20 + 7, 5, max_states)
        assert not result.complete
        assert 1 <= len(result) <= max_states
        assert len(result.transitions) < len(result)
        targets = {child for row in result.transitions for child in row}
        assert targets == set(range(1, len(result.states)))
        for state, output in zip(result.states, result.outputs):
            assert (output,) == state_denotation(spec, state, [state.carry])

    def test_finite_window_outputs(self):
        # window 3: a(n) is defined for n < 8.  At (0, 1) every output is an
        # offset and the closure stops, incomplete, at column 3; at (N, l) =
        # (1, 1) the states of column 3 with carry 1 stand for a(8 + ...),
        # past the window, and their outputs raise.
        spec = KappaSpec(L=2, k=2, preperiod=0, period=None, table=((1, 0, 1),), window=3)
        assert not subsequence_kernel(spec, 0, 1).complete
        with pytest.raises(WindowExceededError):
            subsequence_kernel(spec, 1, 1)
        # stopped by max_states after the root's row, long before column 3
        partial = subsequence_kernel(spec, 1, 1, max_states=3)
        assert not partial.complete
        for n in range(2):
            assert partial.outputs[run_digits(partial, 2, n)] == a_of_n(spec, 1 + n)

    def test_outputs_linear_in_numeral_length(self, rng):
        # Each key's output is read after its digit-0 child's, so the
        # thousands of big carries of N = 10**1000 sum their digits once.
        spec = KappaSpec(L=7, k=2, preperiod=0, period=1, table=((1,),))
        started = time.process_time()
        result = subsequence_kernel(spec, 10**1000, 3, 10**6)
        assert time.process_time() - started < 3
        assert result.complete and len(result) == 85_901
        for i in rng.sample(range(len(result)), 200):
            shift, offset, carry = result.states[i]
            # a_shift(r) = a(r * k**shift): the factor moves each digit up shift places.
            assert result.outputs[i] == (offset + a_of_n(spec, carry * spec.k**shift)) % spec.L

    def test_every_output_of_a_carry_closure(self):
        # The closure keeps one a_shift(carry) per (shift, carry) key, so
        # one a_of_n per key checks the output of every state.
        spec = KappaSpec(L=7, k=2, preperiod=0, period=1, table=((1,),))
        result = subsequence_kernel(spec, 10**100, 3, max_states=10**5)
        assert result.complete and len(result) == 8_488
        sums = {}
        for (shift, offset, carry), output in zip(result.states, result.outputs):
            if (shift, carry) not in sums:
                sums[shift, carry] = a_of_n(spec, carry * spec.k**shift)
            assert output == (offset + sums[shift, carry]) % spec.L
        assert len(sums) == 1_224

    @pytest.mark.parametrize("N, l, max_states", [
        (np.int64(3), np.int64(2), np.int64(10)),
        (np.uint8(0), np.int32(1), 4096),
        (10**30, np.int64(5), np.uint16(300)),
        (np.uint64(2**63 + 5), np.uint64(3), np.int64(1000)),
    ], ids=["int64", "root-uint8", "int-past-2**63", "uint64-past-2**63"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_arguments_read_as_ints(self, N, l, max_states):
        spec = KappaSpec(L=3, k=2, preperiod=1, period=2, table=((2, 1, 0),))
        got = subsequence_kernel(spec, N, l, max_states)
        assert got == subsequence_kernel(spec, int(N), int(l), int(max_states))
        assert {type(x) for state in got.states for x in state} == {int}

    @pytest.mark.parametrize("k, l", [(2, 10**9), (16, 16**3 + 1)])
    def test_carry_states_peak_memory_within_budget(self, k, l):
        # At N = 10**100 with L = 2 a key (shift, carry) holds at most two
        # states: with l = 10**9 nearly every state has a key and a big carry
        # of its own, and with l = 16**3 + 1 every depth past the third holds
        # 4,098 carries whose moves have a run per digit.  The budget, charged
        # for keys and moves beside states, stops the closure within the
        # charged words.
        budget = 4_000_000
        code = (
            "from gtmseq import KappaSpec, subsequence_kernel\n"
            "from gtmseq.errors import BudgetExceededError\n"
            f"spec = KappaSpec(L=2, k={k}, preperiod=0, period=1, table=((1,),) * {k - 1})\n"
            "try:\n"
            f"    subsequence_kernel(spec, 10**100, {l}, 2**62)\n"
            "except BudgetExceededError:\n"
            "    print('refused')\n"
        )
        _, import_mb = run_child("import gtmseq\n")
        (outcome,), peak_mb = run_child(code, GTMSEQ_BUDGET=str(budget))
        assert outcome == "refused"
        assert peak_mb - import_mb <= budget * 8 / 2**20


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
                    lhs = a_values(spec, j, scale, 64)
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

    def test_budget_charges_members(self, tm, monkeypatch):
        # At horizon 1, e_max = 3 stands for 8 values but holds 15 (e, j)
        # members of 17 words each: 8 + 255 words.
        from gtmseq.errors import BudgetExceededError

        monkeypatch.setenv("GTMSEQ_BUDGET", "263")
        assert sum(map(len, kernel_brute_force(tm, 3, 1).values())) == 15
        monkeypatch.setenv("GTMSEQ_BUDGET", "262")
        with pytest.raises(BudgetExceededError, match="^263 values exceed budget 262$"):
            kernel_brute_force(tm, 3, 1)
        monkeypatch.delenv("GTMSEQ_BUDGET")
        # 4.2M values, but 8.4M members, near 0.9 GB resident.
        with pytest.raises(BudgetExceededError):
            kernel_brute_force(tm, 22, 1)

    @pytest.mark.parametrize("e_max, horizon, charged", [
        (np.int64(64), 1, "2\\*\\*69 or more"),
        (np.int64(40), np.int64(2**30), "2\\*\\*70 or more"),
    ], ids=["e_max", "e_max-horizon"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_arguments_charged_in_full(self, tm, e_max, horizon, charged):
        # k**e_max * horizon in int64 would wrap below the budget's count
        with pytest.raises(BudgetExceededError, match=f"^{charged} values exceed"):
            kernel_brute_force(tm, e_max, horizon)
        assert kernel_brute_force(tm, np.int64(3), np.uint8(4)) == kernel_brute_force(tm, 3, 4)


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


@pytest.mark.parametrize("e_max, horizon", [(-1, 4), (2, 0)], ids=["e_max", "horizon"])
def test_brute_force_argument_check(tm, e_max, horizon):
    with pytest.raises(ValueError, match="need e_max >= 0 and horizon >= 1") as info:
        kernel_brute_force(tm, e_max, horizon)
    assert info.type is ValueError


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


class TestKernelBruteForceCases:
    """The (tail row, head) grouping at its edges, against the definition."""

    @staticmethod
    def definition_items(spec, e_max, horizon):
        got = list(kernel_brute_force(spec, e_max, horizon).items())
        assert got == list(brute_force_definition(spec, e_max, horizon).items())
        return got

    def test_horizon_one(self, rng):
        # Each subsequence is its head alone: one group per head value.
        for _ in range(6):
            spec = random_spec(rng, L_max=6, k_max=5, y0_max=2, p_max=3)
            e_max = 4 if spec.k < 4 else 3
            got = self.definition_items(spec, e_max, 1)
            heads = a_values(spec, 0, 1, spec.k**e_max)
            assert sorted(prefix for prefix, _ in got) == [(v,) for v in np.unique(heads).tolist()]

    def test_e_max_zero(self, rng):
        # The one subsequence (0, 0) is the sequence itself.
        for _ in range(4):
            spec = random_spec(rng, L_max=6, k_max=5, y0_max=2, p_max=3)
            got = self.definition_items(spec, 0, 50)
            assert got == [(tuple(a_values(spec, 0, 1, 50).tolist()), [(0, 0)])]

    def test_distinct_heads_large_modulus(self):
        # kappa(s, y) = s * k**y * M mod 2**57 with M odd, so a(j) = j * M
        # mod 2**57: every head below k**e_max is distinct, and the prefix
        # sums need uint64.
        L, k, e_max, M = 2**57, 3, 4, 2**56 + 12345
        table = tuple(tuple(s * k**y * M % L for y in range(e_max)) + (L - 1,)
                      for s in range(1, k))
        spec = KappaSpec(L=L, k=k, preperiod=e_max, period=1, table=table)
        assert a_values(spec, 0, 1, k**e_max).tolist() == [
            j * M % L for j in range(k**e_max)]
        got = self.definition_items(spec, e_max, 9)
        assert len({prefix[0] for prefix, _ in got}) == k**e_max

    def test_alternating_tail_rows_recur(self):
        # kappa(1, y) alternates 0, 1, 0, 1, so tail row a(2**e * n) depends
        # on e only through its parity: one group holds subsequences of
        # levels e and e + 2.
        spec = parse_spec(resources.files("gtmseq") / "specs" / "alternating.spec")
        got = self.definition_items(spec, 6, 64)
        levels = [{e for e, _ in group} for _, group in got]
        assert any({e, e + 2} <= found for found in levels for e in range(5))
        assert len(got) == len(kernel_explore(spec))


# Each L sits where 2L - 2 needs a wider unsigned dtype than L - 1 (or
# just below or above such an edge): the sums a(j) + a(k**e * n) are
# reduced there by wrap-around.
EDGE_MODULI = [2, 3, 127, 128, 129, 255, 256, 257, 2**15, 2**15 + 1,
               2**31, 2**31 + 1, 2**57]


@st.composite
def brute_force_cases(draw):
    """(spec, e_max, horizon): periodic or finite-window, L at a dtype edge."""
    L, k = draw(st.sampled_from(EDGE_MODULI)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        y0, p, cols = 0, None, draw(st.integers(1, 5))
    else:
        y0, p = draw(st.integers(0, 2)), draw(st.integers(1, 3))
        cols = y0 + p
    letters = st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1))
    table = tuple(
        tuple(draw(st.lists(letters, min_size=cols, max_size=cols))) for _ in range(k - 1)
    )
    spec = KappaSpec(L=L, k=k, preperiod=y0, period=p, table=table,
                     window=None if p else cols)
    return spec, draw(st.integers(0, 4 if k == 2 else 3)), draw(st.integers(1, 12))


class TestKernelBruteForceProperty:
    @settings(max_examples=150, deadline=None)
    @given(brute_force_cases())
    def test_matches_definition(self, case):
        spec, e_max, horizon = case
        try:
            want = brute_force_definition(spec, e_max, horizon)
        except WindowExceededError:
            with pytest.raises(WindowExceededError):
                kernel_brute_force(spec, e_max, horizon)
        else:
            assert list(kernel_brute_force(spec, e_max, horizon).items()) == list(want.items())


def tuple_grouping(spec, e_max, horizon):
    """kernel_brute_force's grouping with a tuple key built per column."""
    word = a_values(spec, 0, 1, spec.k**e_max * horizon)
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
        # The oracle_scan brute-force shapes for k = 2 and k = 5, past the
        # sizes that the loop above reaches.
        for trial, (k, e_max, horizon) in enumerate([(2, 9, 64), (5, 4, 83)] * 2):
            L, pre, period = rng.randint(2, 5), rng.randint(0, 3), rng.randint(1, 3)
            spec = KappaSpec(L=L, k=k, preperiod=pre, period=period, table=tuple(
                tuple(rng.randrange(L) for _ in range(pre + period)) for _ in range(k - 1)))
            if trial >= 2:
                spec = redeclared(spec, rng)
            got = kernel_brute_force(spec, e_max, horizon)
            assert list(got.items()) == list(tuple_grouping(spec, e_max, horizon).items())

    @pytest.mark.parametrize("L", [255, 256, 257, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**57])
    def test_narrow_key_dtypes(self, rng, L):
        # Keys are min_scalar_type(L - 1) bytes: each L here sits at an edge
        # of uint8/16/32/64.  Letters include L - 1 and 0, and the zero spec
        # has only all-NUL keys, which must keep their trailing NUL bytes.
        specs = [zero_spec(L, 3)]
        for _ in range(3):
            k, pre, period = rng.randint(2, 4), rng.randint(0, 2), rng.randint(1, 3)
            specs.append(KappaSpec(
                L=L, k=k, preperiod=pre, period=period,
                table=tuple(tuple(rng.choice([0, L - 1, rng.randrange(L)])
                                  for _ in range(pre + period)) for _ in range(k - 1)),
            ))
        for spec in specs:
            e_max, horizon = (3 if spec.k < 4 else 2), rng.choice([1, 5, 17])
            got = list(kernel_brute_force(spec, e_max, horizon).items())
            assert got == list(tuple_grouping(spec, e_max, horizon).items())
            assert got == list(brute_force_definition(spec, e_max, horizon).items())
            for prefix, _ in got:
                assert len(prefix) == horizon and all(type(v) is int for v in prefix)

    @staticmethod
    def peak_memory_k5(L):
        """Group count and peak MB of kernel_brute_force(k = 5 spec, 5, 4096)."""
        code = (
            "from gtmseq import KappaSpec, kernel_brute_force\n"
            f"spec = KappaSpec(L={L}, k=5, preperiod=1, period=2,\n"
            "                 table=((1, 0, 2), (2, 2, 0), (0, 1, 1), (1, 2, 2)))\n"
            "print(len(kernel_brute_force(spec, 5, 4096)))\n"
        )
        (groups,), peak_mb = run_child(code, GTMSEQ_BUDGET="20000000")
        return int(groups), peak_mb

    def test_peak_memory_k5(self):
        # The subsequences hold 5**5 * 4096 = 12.8M values, but the digit
        # route computes only 5**5 heads and 6 tail rows of 4096, and no
        # level of subsequences is built: well under 1 MB in uint8.
        groups, peak_mb = self.peak_memory_k5(3)
        assert groups == 7
        assert peak_mb <= 100

    def test_peak_memory_k5_uint16_keys(self):
        # L = 300 keeps its values and tail-row keys in uint16, and its
        # prefix sums too: the same arrays, twice as wide.
        groups, peak_mb = self.peak_memory_k5(300)
        assert groups == 21
        assert peak_mb <= 100
