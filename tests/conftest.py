import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtmseq
from gtmseq import KappaSpec, KernelResult, KernelState, PeriodicityVerdict
from gtmseq.automaton import _STATE_WORDS
from gtmseq.errors import WindowExceededError
from gtmseq.kappa import (_numeral_length, check_budget, equally_spaced, generate_prefix_morphic,
                          word_budget)
from gtmseq.periodicity import NON_PERIODIC, PERIODIC

# Appended to a child's code: prints its peak resident set in KiB.  On
# Linux ru_maxrss would not do: a child started by vfork and exec keeps
# the parent's peak there, so the child's own VmHWM is read instead.
PRINT_PEAK_KIB = (
    "import resource, sys\n"
    "try:\n"
    "    with open('/proc/self/status') as status:\n"
    "        print(next(int(line.split()[1]) for line in status if line.startswith('VmHWM:')))\n"
    "except OSError:\n"
    "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "          // (2**10 if sys.platform == 'darwin' else 1))  # bytes on macOS\n"
)


def run_child(code, **env):
    """Run ``code`` in a fresh interpreter on the gtmseq under test.

    Returns its stdout lines and its peak resident set in MB.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(gtmseq.__file__).parents[1]), **env)
    child = subprocess.run([sys.executable, "-c", code + PRINT_PEAK_KIB], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    *lines, peak_kib = child.stdout.split()
    return lines, int(peak_kib) / 2**10


def make_spec(L, k, preperiod, period, columns, name=None):
    """Spec from a column-major description: columns[y] = kappa(., y)."""
    table = tuple(
        tuple(columns[y][s - 1] for y in range(preperiod + period))
        for s in range(1, k)
    )
    return KappaSpec(L=L, k=k, preperiod=preperiod, period=period, table=table, name=name)


def constant_spec(L, k, kvec, name=None):
    return KappaSpec(
        L=L, k=k, preperiod=0, period=1,
        table=tuple((v,) for v in kvec), name=name,
    )


def tm_spec():
    return constant_spec(2, 2, (1,), name="thue-morse")


def zero_spec(L=2, k=2):
    return constant_spec(L, k, (0,) * (k - 1), name="zero")


def alternating_spec():
    # kappa(1, y) = 0, 1, 0, 1, ...
    return KappaSpec(L=2, k=2, preperiod=0, period=2, table=((0, 1),), name="alternating")


def tail_rounding_spec():
    # For N = 0, l = 7, m = 4 the witness tail (w - 1)|V| = 162/31 is within
    # k**m/(2l) = 81/14, while its ceiling 6 is not.
    return KappaSpec(L=2, k=3, preperiod=1, period=3, table=((0, 1, 0, 0), (0, 0, 0, 0)))


def power_residue_cycle(k, L):
    """(preperiod, cycle length) of the sequence k**y mod L, by walking it."""
    seen = {}
    v, y = 1 % L, 0
    while v not in seen:
        seen[v] = y
        v, y = (v * k) % L, y + 1
    return seen[v], y - seen[v]


def classify_constant(L, k, kvec):
    """Periodicity of the y-independent sequence given by kvec = kappa(1..k-1).

    Independent closed-form route: periodic iff s*kappa(1) == kappa(s) mod L
    for all s and kappa(k-1) == 0 mod L.
    """
    kvec = tuple(kvec)
    if len(kvec) != k - 1:
        raise ValueError(f"kvec must have {k - 1} entries, got {len(kvec)}")
    for v in kvec:
        if not 0 <= v < L:
            raise ValueError(f"kvec entry {v} outside [0, {L - 1}]")
    for s in range(1, k):
        if (s * kvec[0]) % L != kvec[s - 1]:
            return PeriodicityVerdict(status=NON_PERIODIC, refutations=((0, s, 0),))
    if kvec[k - 2] % L != 0:
        # kappa(k-1) != 0: the y=1 congruence for s=1 fails at every shift.
        return PeriodicityVerdict(status=NON_PERIODIC, refutations=((0, 1, 1),))
    return PeriodicityVerdict(status=PERIODIC, shift=0, period=L, checked_window=1)


def literal_product(spec, Y):
    """Expand prod_{y<=Y} (1 + sum_s zeta**kappa(s,y) * z**(s*k**y)) term by term.

    Returns {exponent of z: exponent c of the root of unity exp(2*pi*i*c/L)},
    multiplied one factor at a time; asserts that no coefficient of z is
    written twice, so every coefficient is a single root of unity.
    """
    k, L = spec.k, spec.L
    coefficients = {0: 0}
    for y in range(Y + 1):
        terms = [(0, 0)] + [(s * k**y, spec.kappa(s, y)) for s in range(1, k)]
        product = {}
        for e, c in coefficients.items():
            for step, kappa in terms:
                assert e + step not in product, f"z**{e + step} written twice"
                product[e + step] = (c + kappa) % L
        coefficients = product
    return coefficients


def random_spec(rng: random.Random, L_max=6, k_max=5, y0_max=3, p_max=4):
    L = rng.randint(2, L_max)
    k = rng.randint(2, k_max)
    y0 = rng.randint(0, y0_max)
    p = rng.randint(1, p_max)
    table = tuple(
        tuple(rng.randrange(L) for _ in range(y0 + p)) for _ in range(k - 1)
    )
    return KappaSpec(L=L, k=k, preperiod=y0, period=p, table=table)


def periodic_constructed_spec(rng: random.Random, L_max=6, k_max=5, A_max=2, min_period=1):
    """Random spec built to satisfy the periodicity criterion at shift A.

    Columns below A are arbitrary; from A on they follow
    kappa(s, A + y) = c * s * k**y mod L, laid out over the natural
    preperiod/period of the power residues of k mod L.  A is at least the
    least shift whose period L * k**A reaches ``min_period``.
    """
    L = rng.randint(2, L_max)
    k = rng.randint(2, k_max)
    A = rng.randint(0, A_max)
    while L * k**A < min_period:
        A += 1
    c = rng.randrange(L)
    pre, cyc = power_residue_cycle(k, L)
    y0 = A + pre
    p = cyc
    columns = []
    for y in range(y0 + p):
        if y < A:
            columns.append(tuple(rng.randrange(L) for _ in range(1, k)))
        else:
            ky = pow(k, y - A, L)
            columns.append(tuple((c * s * ky) % L for s in range(1, k)))
    return make_spec(L, k, y0, p, columns), A


def generate_prefix_morphic_literal(spec, m):
    """The substitution kernel as first written: an int64 word reduced
    with ``% L`` at every step.

    A literal oracle for ``generate_prefix_morphic``, which builds the
    word in a narrow unsigned dtype; it must return an equal word or raise
    the same error at the same check.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m:
        spec.column(m - 1)  # a finite window fails here, before the budget
    check_budget(spec.k**m)
    word = np.zeros(1, dtype=np.int64)
    for y in range(m):
        word = (np.add.outer((0,) + spec.column(y), word) % spec.L).ravel()
    return word


def horner_literal(values, beta):
    """sum_n values[n] * beta**(len(values) - 1 - n), one Horner step per term.

    A literal oracle for ``analytic._horner_numerator``, which joins runs
    of terms by halves.
    """
    numerator = 0
    for v in values:
        numerator = numerator * beta + v
    return numerator


def kernel_explore_literal(spec, max_states=4096):
    """The kernel closure as first written: a (shift, offset) dict keyed by
    ``KernelState``, and one ``spec.column`` read per state.

    A literal oracle for ``kernel_explore``, which must return an equal
    ``KernelResult`` or raise the same error.  Each state costs the same
    ``_STATE_WORDS`` + k words of the budget.
    """
    states = [KernelState(shift=spec.canonical_column(0), offset=0)]
    index = {states[0]: 0}
    transitions = []
    complete = True
    budget = word_budget()
    state_words = _STATE_WORDS + spec.k
    for state in states:  # grows while iterated, so the order is breadth-first
        try:
            steps = (0,) + spec.column(state.shift)
        except WindowExceededError:
            # Finite-window spec ran out of columns: inconclusive.
            complete = False
            break
        shift = spec.canonical_column(state.shift + 1)
        finished = len(states)
        row = []
        for step in steps:
            child = KernelState(shift=shift, offset=(state.offset + step) % spec.L)
            child_idx = index.setdefault(child, len(states))
            if child_idx == len(states):
                states.append(child)
            row.append(child_idx)
        if len(states) > max(finished, max_states):
            # The row added states past the cap (a row that adds none never
            # stops the closure): drop them with the row.
            del states[finished:]
            complete = False
            break
        if len(states) * state_words > budget:
            check_budget(len(states) * state_words)
        transitions.append(tuple(row))
    return KernelResult(
        states=tuple(states),
        transitions=tuple(transitions),
        outputs=tuple(s.offset for s in states),
        complete=complete,
    )


def gen_line_literal(spec, mode, N, l, count):
    """``gtmseq gen``'s word line by the list-index route: the morphic
    prefix as a Python list, read one index at a time.

    A literal oracle for ``gen``, which gathers its window from the word
    in numpy; ``mode`` is "morphic" or "both", and "both" adds the digit
    route and its AGREE/DISAGREE tag.
    """
    words = []
    if mode != "morphic":
        words.append(list(equally_spaced(spec, N, l, count).values))
    indices = [N + n * l for n in range(count)]
    m = _numeral_length(max(indices, default=0), spec.k)
    word = generate_prefix_morphic(spec, m).tolist()
    words.append([word[i] for i in indices])
    line = ("" if max(words[0], default=0) < 10 else " ").join(map(str, words[0]))
    if len(words) == 2:
        line += " AGREE" if words[0] == words[1] else " DISAGREE"
    return line + "\n"


@pytest.fixture
def tm():
    return tm_spec()


@pytest.fixture
def rng():
    return random.Random(20240817)
