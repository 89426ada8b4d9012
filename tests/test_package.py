"""The package's lazy exports: each public name comes from the module that defines it."""
import importlib

import dseq


def test_every_source_name_is_its_modules_export():
    for module, names in dseq._SOURCES.items():
        exported = importlib.import_module(f"dseq.{module}").__all__
        assert [name for name in names if name not in exported] == [], module


def test_every_public_name_is_its_modules_object():
    for name in dseq.__all__:
        module = importlib.import_module(f"dseq.{dseq._MODULE_OF[name]}")
        assert getattr(dseq, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dseq import *", namespace)
    assert set(dseq.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(dseq, name) for name in dseq.__all__)
