import doctest
import os

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_examples_run_as_doctests():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted >= 14
    assert result.failed == 0
