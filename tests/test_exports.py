"""The package's public names."""
from collections import Counter

import vrlatsim


def test_every_exported_name_resolves_and_appears_once():
    names = vrlatsim.__all__
    assert [name for name in names if not hasattr(vrlatsim, name)] == []
    assert [name for name, n in Counter(names).items() if n > 1] == []
