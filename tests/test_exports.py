"""The package's namespace: its modules, and no test-only code."""

import jpac
from jpac import kernel, oracle


def test_modules_load_and_test_references_stay_out():
    # Names are imported from their modules; the package re-exports none.
    assert not hasattr(jpac, "__all__")
    for module in ("admission", "kernel", "network", "oracle", "scenario"):
        assert hasattr(jpac, module), module
    # These live in tests/reference.py: nothing in jpac runs them.
    for name in ("lp_exact", "foschini_miljanic", "necessary_condition"):
        assert not hasattr(jpac, name), name
    assert not hasattr(oracle, "lp_exact") and not hasattr(oracle, "LP_GUARD")
    assert not hasattr(jpac.admission, "foschini_miljanic")
    assert not hasattr(jpac.admission, "necessary_condition")
    assert not hasattr(kernel.AugmentedProblem, "A_tilde")
    assert not hasattr(kernel.AugmentedProblem, "b_tilde")
