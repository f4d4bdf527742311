import numpy as np
import pytest

from stochgm import GMParams

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # every property draws the same cases on every run, replays none from an
    # example database, and has no per-example time limit
    settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
    settings.load_profile("fixed")


@pytest.fixture(scope="session")
def base_params():
    """Modest parameter set shared by the simulation tests."""
    return GMParams(log_ai=np.log(0.5), d595=10.0, t_mid=5.0, omega_mid=15.0,
                    omega_rate=-0.2, zeta_f=0.3, t_total=25.0)


@pytest.fixture(scope="session")
def sim_dt():
    return 0.02


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion at the end of the run."""
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        return
    outcomes = {}
    for status in ("passed", "failed", "skipped", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance.py" not in rep.nodeid:
                continue
            name = rep.nodeid.split("::")[-1].split("[")[0]
            if status == "passed" and rep.when != "call":
                continue
            # setup/teardown failures and skips count for the criterion
            outcomes.setdefault(name, status.upper())
            if status in ("failed", "error"):
                outcomes[name] = "FAIL"
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for name, label in CRITERIA.items():
        status = outcomes.get(name, "NOT RUN")
        if status == "PASSED":
            status = "PASS"
        elif status == "SKIPPED":
            status = "SKIP"
        terminalreporter.write_line(f"  [{status}] {label}")
