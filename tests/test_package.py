"""The package's public name list."""

import viewdiv


def test_every_exported_name_resolves():
    """Every name in ``__all__`` resolves on the package, the lazily loaded
    generator names included, so a stale entry fails here and not first in
    ``from viewdiv import *``."""
    assert {"SynthParams", "generate", "presets"} <= set(viewdiv.__all__)
    for name in viewdiv.__all__:
        assert getattr(viewdiv, name) is not None, name
