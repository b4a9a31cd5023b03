"""Package surface: every public name resolves, none is listed twice, and
every public exception belongs to one of the two families the CLI maps to an
exit code."""

import mixedspec
from mixedspec import VerificationError


def test_all_names_resolve_and_are_unique():
    names = mixedspec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mixedspec, name)]
    assert missing == []


def test_every_public_exception_is_bad_input_or_verification_failure():
    # cli.main maps ValueError to exit 2 and VerificationError to exit 1
    classes = [getattr(mixedspec, name) for name in mixedspec.__all__]
    errors = [c for c in classes if isinstance(c, type) and issubclass(c, BaseException)]
    assert errors
    odd = [c for c in errors if not issubclass(c, (ValueError, VerificationError))]
    assert odd == []
