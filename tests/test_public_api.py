"""The package's public surface: every exported name resolves."""

import cnotsteer


def test_every_exported_name_is_an_attribute_of_the_package():
    missing = [name for name in cnotsteer.__all__ if not hasattr(cnotsteer, name)]
    assert missing == []
    assert len(set(cnotsteer.__all__)) == len(cnotsteer.__all__)
    namespace = {}
    exec("from cnotsteer import *", namespace)
    assert set(cnotsteer.__all__) <= set(namespace)
