"""The package's namespace: its modules, and no test-only code."""

import jpac
from jpac import kernel, network, oracle


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
    assert not hasattr(kernel, "_batch_potential")
    # The exact admissibility test is admission.admissible alone.
    assert not hasattr(network, "m_matrix_solve")
    assert not hasattr(jpac.admission, "_admissible_rows")
    assert not hasattr(jpac.admission, "logger")
    # Ridge retries are counted on the certificates, not logged.
    assert not hasattr(kernel, "logger")
