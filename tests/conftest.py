"""Shared fixtures."""

import pytest

from darboux3.algebra import verify


@pytest.fixture
def clear_frame():
    """Return a function that empties every cache of ``verify``, among them
    the Schrödinger family (builders.schrodinger_family, which verify
    imports), so that the next verify_theorem call builds its frame anew;
    the frame is emptied once before the test too."""
    def clear():
        for value in vars(verify).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    clear()
    return clear
