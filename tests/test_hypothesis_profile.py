"""The Hypothesis profile `conftest.py` loads, as every property test sees it."""

from hypothesis import settings


def test_property_tests_draw_fixed_examples_and_keep_no_database():
    for seen in (settings.default, settings(max_examples=5, deadline=None)):
        assert seen.derandomize and seen.database is None
