import catbreed


def test_public_names_resolve():
    missing = [name for name in catbreed.__all__ if not hasattr(catbreed, name)]
    assert not missing
    assert len(set(catbreed.__all__)) == len(catbreed.__all__)
    namespace = {}
    exec("from catbreed import *", namespace)
    assert set(catbreed.__all__) <= set(namespace)
