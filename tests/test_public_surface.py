import narragraph as ng


def test_every_exported_name_resolves():
    missing = [name for name in ng.__all__ if not hasattr(ng, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(ng.__all__)) == len(ng.__all__)
    assert ng.__all__ == sorted(ng.__all__)
