"""The inventory of error classes: every ``DriftLabError`` subclass that
a ``driftlab`` module defines.

There is one class per kind of fault: ``ConfigError`` for a setting or
spec that no run can take, ``SchemaMismatch`` for stream data that is
malformed or disagrees with its schema, and ``InvalidPosterior`` for
values beyond float range. A new failure raises one
of these with its own message; an edit that adds or removes a class
must edit this list too.
"""

import importlib
import inspect
import pkgutil

import driftlab
from driftlab.core import DriftLabError

ERROR_CLASSES = ["ConfigError", "InvalidPosterior", "SchemaMismatch"]


def defined_error_classes():
    found = []
    for info in pkgutil.iter_modules(driftlab.__path__):
        module = importlib.import_module(f"driftlab.{info.name}")
        for name, value in vars(module).items():
            if (
                inspect.isclass(value)
                and value.__module__ == module.__name__
                and issubclass(value, DriftLabError)
                and value is not DriftLabError
            ):
                found.append(name)
    return sorted(found)


def test_error_classes_are_exactly_the_inventory():
    assert defined_error_classes() == ERROR_CLASSES
