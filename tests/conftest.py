import sys

import pytest
from hypothesis import settings

from redup.alphabet import Alphabet

# Twenty times the default examples, for a differential module whose tests
# set no count of their own: `pytest --hypothesis-profile=thorough ...`
settings.register_profile("thorough", max_examples=2000, deadline=None)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-gate verdicts where capture cannot eat them."""
    module = sys.modules.get("test_acceptance")
    if module is None or not getattr(module, "RESULTS", None):
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance gate:")
    for line in module.RESULTS:
        terminalreporter.write_line("  " + line)


@pytest.fixture(scope="session")
def ab():
    """Two-token toy alphabet: a (vowel), b (consonant). 26 symbols."""
    return Alphabet.from_inventory([("a", "vowel", ()), ("b", "consonant", ())])


@pytest.fixture(scope="session")
def abc():
    return Alphabet.from_inventory(
        [("a", "vowel", ()), ("b", "consonant", ()), ("c", "consonant", ())]
    )
