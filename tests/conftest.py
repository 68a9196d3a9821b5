"""Shared test set-up: a fixed pool of Hypothesis constants.

Hypothesis mixes the literal constants of every local module in sys.modules
(test files excepted) into its draws, so a derandomized property test draws
different examples depending on which source modules the collected test
files happened to import.  Importing every ottofridge module here, before
any test file, makes the pool the same for every selection of tests: a
property test draws the same examples alone as in the full suite.
"""

import importlib
import pkgutil

import ottofridge

for _module in pkgutil.iter_modules(ottofridge.__path__):
    importlib.import_module(f"ottofridge.{_module.name}")
