"""The mutant corpus in tests/mutants.py stays current with the package.

Each mutant's old text must occur exactly once in its file.  Checking that
here, without running any mutant, makes a refactor that moves or rewrites a
mutated line fail the suite at once rather than at the next corpus run.
"""

from mutants import MUTANTS, check_corpus


def test_every_mutant_old_text_occurs_exactly_once():
    check_corpus(MUTANTS)  # exits naming each stale mutant otherwise
