"""Package surface: every public name resolves, none is listed twice."""

import mixedspec


def test_all_names_resolve_and_are_unique():
    names = mixedspec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mixedspec, name)]
    assert missing == []
