"""The package's public names."""

import jpac
from jpac import kernel, oracle


def test_all_resolves_and_test_references_stay_out():
    # A stale __all__ entry breaks `from jpac import *` only when someone runs it.
    assert len(set(jpac.__all__)) == len(jpac.__all__) == 28
    missing = [name for name in jpac.__all__ if not hasattr(jpac, name)]
    assert missing == []
    # These live in tests/reference.py: nothing in jpac runs them.
    for name in ("lp_exact", "foschini_miljanic", "necessary_condition"):
        assert name not in jpac.__all__ and not hasattr(jpac, name), name
    assert not hasattr(oracle, "lp_exact") and not hasattr(oracle, "LP_GUARD")
    assert not hasattr(jpac.admission, "foschini_miljanic")
    assert not hasattr(jpac.admission, "necessary_condition")
    assert not hasattr(kernel.AugmentedProblem, "A_tilde")
    assert not hasattr(kernel.AugmentedProblem, "b_tilde")
