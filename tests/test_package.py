import cetsim


def test_public_names_unique_and_resolvable():
    names = cetsim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cetsim, name)]
    assert missing == []
