"""Pins of ``tools/mutate.py``'s operators on a fixed snippet.

Each PR reports the mutation run's survivor counts; an operator that stops
finding its sites would shrink them silently.  The snippet holds every
operator's site at least once, and the pins fix the sites, their order and
two mutated sources, and that every mutant's source is its own.

A target whose scope names no function gets no site either, and its totals
line reads ``mutants 0`` like a function with nothing to mutate, so each
target's scope and test files are checked against the tree.
"""

import ast

import pytest

import mutate

SNIPPET = '''\
def f(xs, k):
    for x in xs:
        if x < k and not x >= 2:
            continue
        if x > 3 or x <= -1:
            break
    try:
        k = k + 1 if xs else k - 1
    except TypeError:
        k = 0
    return k


def g(y):
    return y < 4
'''

# (line, column, change) in visiting order: a node's own site follows the
# sites inside it.
SITES = [
    (3, 11, "< -> <="),
    (3, 30, "2 -> 3"),
    (3, 25, ">= -> >"),
    (3, 21, "drop not"),
    (3, 11, "and -> or"),
    (4, 12, "continue -> break"),
    (5, 15, "3 -> 4"),
    (5, 11, "> -> >="),
    (5, 26, "1 -> 2"),
    (5, 20, "<= -> <"),
    (5, 11, "or -> and"),
    (6, 12, "break -> continue"),
    (8, 16, "1 -> 2"),
    (8, 12, "drop + 1"),
    (8, 33, "1 -> 2"),
    (8, 29, "drop - 1"),
    (8, 12, "if-else -> if"),
    (8, 12, "if-else -> else"),
    (10, 12, "0 -> 1"),
    (9, 4, "drop except TypeError"),
    (15, 11, "< -> <="),
]

UNMUTATED_F = '''\
def f(xs, k):
    for x in xs:
        if x < k and (not x >= 2):
            continue
        if x > 3 or x <= -1:
            break
'''

G = '''
def g(y):
    return y < 4
'''


def test_every_site():
    assert mutate.sites(SNIPPET) == SITES
    assert mutate.mutant(SNIPPET, -1) == UNMUTATED_F + '''\
    try:
        k = k + 1 if xs else k - 1
    except TypeError:
        k = 0
    return k
''' + G


def test_scope_keeps_its_own_sites():
    assert mutate.sites(SNIPPET, "g") == SITES[-1:]
    # a target's sites are numbered from 0 within its scope
    assert mutate.mutant(SNIPPET, 0, "g").endswith("    return y <= 4\n")


def test_every_mutant_is_its_own_source():
    plain = mutate.mutant(SNIPPET, -1)
    mutants = {mutate.mutant(SNIPPET, k) for k in range(len(SITES))}
    assert len(mutants) == len(SITES)
    assert plain not in mutants


def test_conditional_replaced_by_its_else():
    assert mutate.mutant(SNIPPET, 17) == UNMUTATED_F + '''\
    try:
        k = k - 1
    except TypeError:
        k = 0
    return k
''' + G


def test_only_except_dropped_leaves_the_body():
    assert mutate.mutant(SNIPPET, 19) == UNMUTATED_F + '''\
    k = k + 1 if xs else k - 1
    return k
''' + G


def defined_functions(source):
    """Qualified names of every function and method in ``source``, joined as ``Mutator`` joins them."""
    found = set()

    def walk(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    found.add(".".join(names + [child.name]))
                walk(child, names + [child.name])
            else:
                walk(child, names)

    walk(ast.parse(source), [])
    return found


@pytest.mark.parametrize("name, scope, tests", mutate.TARGETS,
                         ids=[name + (f" {scope}" if scope else "") for name, scope, _ in mutate.TARGETS])
def test_target_exists(name, scope, tests):
    source = (mutate.ROOT / "src" / "closepair" / name).read_text()
    assert scope is None or scope in defined_functions(source)
    assert all((mutate.ROOT / test).is_file() for test in tests)
