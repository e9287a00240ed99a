import boundarylab


def test_star_import_provides_every_export_once():
    namespace = {}
    exec("from boundarylab import *", namespace)
    assert len(set(boundarylab.__all__)) == len(boundarylab.__all__)
    assert set(boundarylab.__all__) <= set(namespace)
