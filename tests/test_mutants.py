"""The mutation gate of tests/mutants.py, run as one tier-1 test.

Every mutant must be killed by the tests its entry names; the failure
lists each survivor and each entry that no longer applies.  It takes
about 12 s on two cores.
"""

from mutants import MUTANTS, run


def test_every_mutant_is_killed():
    assert len(MUTANTS) >= 17
    survivors = run()
    assert not survivors, "\n".join(["these mutants were not killed:", *survivors])
