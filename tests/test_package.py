import infosearch_eval


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from infosearch_eval import *", namespace)
    assert [name for name in infosearch_eval.__all__ if name not in namespace] == []
