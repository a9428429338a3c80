"""A corpus of named textual mutants of the package, each run against Tier-1.

    python tests/mutants.py

Each mutant is (name, file, old text, new text).  For each one the checkout is
copied to a temporary directory, the old text is replaced by the new text
there, and the Tier-1 suite, all but the corpus check, runs in that copy with
-x.  A mutant is killed when the suite fails, and the first failing test is
printed; it survived when the suite passes.  Every old text must occur
exactly once in its file, so a refactor that moves the code stops the run
before any mutant is run, instead of skipping a mutant unseen.  The exit status is 0 only when every mutant run
is killed.  Stdlib only; pytest does not collect this file.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A mutated copy no longer holds its mutant's old text, so the corpus check
# (tests/test_mutant_corpus.py) would kill every mutant; it is left out here.
TIER1 = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutant_corpus.py"]
TIMEOUT_S = 600  # a mutant that hangs the suite counts as killed

MUTANTS = [
    ("arrangements_drop_last_slot", "src/lieq/uea.py",
     "for p in range(len(arr) + 1)}", "for p in range(len(arr))}"),
    ("normalize_late_rescan", "src/lieq/uea.py",
     "start = pos - 1 or 1", "start = pos or 1"),
    ("settle_less_step_back", "src/lieq/uea.py",
     "if pos > 1:", "if pos > 2:"),
    ("mac_every_denominator_equal", "src/lieq/scalars.py",
     "if h == den:", "if True:"),
    ("eps_limit_real_parts", "src/lieq/scalars.py",
     "kept[mono + k] = coeff", "kept[mono + k] = (coeff[0], 0, coeff[2])"),
    ("validate_missing_cyclic_case", "src/lieq/algebra.py",
     "elif z < x:", "elif False:"),
    ("contracted_passes_order_1_poles", "src/lieq/contraction.py",
     "if low < 0:", "if low < -1:"),
    ("unit_inverse_conjugate_sign", "src/lieq/scalars.py",
     "_reduce(den * re, -den * im,", "_reduce(den * re, den * im,"),
    ("weyl_weight_one_over_len", "src/lieq/uea.py",
     "Scalar.rational(1, count)", "Scalar.rational(1, len(letters))"),
    ("casimir_skips_last_letter", "src/lieq/uea.py",
     "while k < len(key) and key[k] == nl:", "while k < len(key) - 1 and key[k] == nl:"),
    ("casimir_first_occurrence_only", "src/lieq/uea.py",
     "k += 1", "k = len(key)"),
    ("casimir_straightens_empty_sums_only", "src/lieq/uea.py",
     "_normalize(alg, raw, budget) if raw else {}",
     "_normalize(alg, raw, budget) if not raw else {}"),
    ("change_basis_one_factor", "src/lieq/algebra.py",
     "_mac(w, ac, bd)", "w.update(ac)"),
    ("casimir_plan_any_outside", "src/lieq/uea.py",
     "if len(outside) == 1:", "if len(outside) >= 1:"),
    ("index_rows_twice_after_nonzero_only", "src/lieq/algebra.py",
     "if (ia, ib) in upper:", "if upper.get((ia, ib)):"),
    ("descents_keyed_unswapped", "src/lieq/uea.py",
     "alg._descents = {(-b, -a):", "alg._descents = {(-a, -b):"),
    ("normalize_budget_one_over", "src/lieq/uea.py",
     "if len(pending) > budget:", "if len(pending) > budget + 1:"),
    ("tables_equal_ignores_b_only_pairs", "src/lieq/contraction.py",
     "if to_a[x] < to_a[y])", "if False)"),
    ("spectator_carry_binds_home", "src/lieq/casimirs.py",
     "residue=UEAElement(alg, step.residue._terms)",
     "residue=UEAElement(home, step.residue._terms)"),
    ("expr_column_one_too_small", "src/lieq/expr.py",
     'k - text.rfind("\\n", 0, k)', 'k - 1 - text.rfind("\\n", 0, k)'),
    ("expand_right_factor_first", "src/lieq/uea.py",
     "(n1 + n2,) + letters + tail", "(n1 + n2,) + tail + letters"),
    ("substitute_kept_letter_keeps_length", "src/lieq/uea.py",
     "rows = {(k[0] - 1,) + k[1:]", "rows = {(k[0],) + k[1:]"),
    ("indexed_accepts_any_coefficient", "src/lieq/uea.py",
     "if not isinstance(coeff, Scalar):", "if False:"),
    ("indexed_words_sorted", "src/lieq/uea.py",
     "out.append((tuple(alg._gen_index(n) for n in names), coeff))",
     "out.append((tuple(sorted(alg._gen_index(n) for n in names)), coeff))"),
    ("symbol_limit_one_over", "src/lieq/scalars.py",
     "if len(_NAMES) >= _MAX_FIELDS:", "if len(_NAMES) > _MAX_FIELDS:"),
    ("exponent_reader_no_half_offset", "src/lieq/scalars.py",
     "((mono + (1 << shift >> 1)) >> shift)", "(mono >> shift)"),
    ("mul_power_unchecked_for_negative_k", "src/lieq/scalars.py",
     "if not -_BOUND <= _exponent(mono, shift) + k < _BOUND:",
     "if k > 0 and not -_BOUND <= _exponent(mono, shift) + k < _BOUND:"),
    ("checked_past_registry_one_over", "src/lieq/scalars.py",
     "if shift >= _FIELD * len(_NAMES)", "if shift > _FIELD * len(_NAMES)"),
]


def check_corpus(mutants):
    """Fail loudly unless each old text occurs exactly once in its file."""
    bad = []
    for name, path, old, _ in mutants:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            bad.append("%s: %r occurs %d times in %s" % (name, old, count, path))
    if bad:
        sys.exit("mutant corpus out of date:\n  " + "\n  ".join(bad))


def first_failure(output):
    """The first FAILED or ERROR line of pytest's short summary, else the last line."""
    for line in output.splitlines():
        if re.match(r"(FAILED|ERROR) ", line):
            return line
    lines = output.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def run_mutant(path, old, new):
    """(killed, seconds, first failure) of Tier-1 on a mutated copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="lieq-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable] + TIER1, cwd=copy, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start, "timed out after %d s" % TIMEOUT_S
        seconds = time.perf_counter() - start
        if done.returncode not in (0, 1):
            sys.exit("pytest exited %d on mutant of %s:\n%s"
                     % (done.returncode, path, done.stdout + done.stderr))
        return done.returncode == 1, seconds, first_failure(done.stdout)


def main():
    check_corpus(MUTANTS)
    survivors = []
    for name, path, old, new in MUTANTS:
        killed, seconds, failure = run_mutant(path, old, new)
        print("%-8s %-38s %6.1f s  %s" % ("killed" if killed else "SURVIVED", name, seconds,
                                          failure), flush=True)
        if not killed:
            survivors.append(name)
    print("%d of %d mutants killed" % (len(MUTANTS) - len(survivors), len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
