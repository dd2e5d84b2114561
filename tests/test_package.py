import bornexact


def test_all_names_resolve():
    missing = [name for name in bornexact.__all__ if not hasattr(bornexact, name)]
    assert missing == []
    assert len(set(bornexact.__all__)) == len(bornexact.__all__)
