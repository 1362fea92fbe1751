import re

import pytest

from mutants import MUTANTS, ROOT


def _case_id(mutant):
    return mutant.id or mutant.test.split("::")[-1]


def test_mutant_case_ids_are_unique():
    # pytest would suffix duplicate ids, renaming the cases already listed.
    ids = [_case_id(mutant) for mutant in MUTANTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", MUTANTS, ids=_case_id)
def test_mutant_still_applies(mutant):
    # The list cannot rot silently: each old text occurs exactly once in its
    # file, and each killing test is still defined where its id points.
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    test_file, test_name = mutant.test.split("::")
    assert re.search(rf"^def {test_name}\(", (ROOT / test_file).read_text(), re.MULTILINE)
