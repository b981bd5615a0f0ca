"""The public API is declared once, in each module's __all__, and the
package re-exports every one of them; the order kinds have one spelling
wherever a module names them."""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
from collections import Counter

import ikmix
from ikmix import CURVE_FOR_KIND, CURVE_KINDS, ORDER_KINDS, cli, ordercheck, theorems

# the command line is the console script's entry point, not library API
_NOT_REEXPORTED = {"cli"}


def _modules():
    return [importlib.import_module(f"ikmix.{info.name}")
            for info in pkgutil.iter_modules(ikmix.__path__)
            if info.name not in _NOT_REEXPORTED]


def test_public_names_are_the_union_of_the_module_all():
    public = {name for name, value in vars(ikmix).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    declared = {name for module in _modules() for name in module.__all__}
    assert public == declared
    assert len(declared) == 69


def test_each_name_resolves_to_its_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(ikmix, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_two_modules_export_the_same_name():
    counts = Counter(name for module in _modules() for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def _choices(command: str, dest: str) -> list:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_one_spelling_per_order_kind():
    assert ORDER_KINDS == ("st", "rh", "lr", "r_rh")
    # the kind tables are views of one registry entry per kind
    assert ORDER_KINDS == tuple(ordercheck._KINDS)
    assert CURVE_FOR_KIND == {kind: e.curve for kind, e in ordercheck._KINDS.items()}
    assert CURVE_KINDS == ("sf", "cdf_ratio", "pdf_ratio", "rh_ratio")
    assert {cond.kind for cond in theorems._CONDITIONS.values()} == set(ORDER_KINDS)
    # the CLI accepts the library's names and one documented alias
    assert _choices("order", "kind") == [*ORDER_KINDS, "r-rh"]
    assert cli._ALIASES["r-rh"] == "r_rh"


def test_one_name_per_curve_kind():
    # the CLI's curve kinds are the library's, with its sf curve (the sf
    # difference) spelt sfdiff, sf for one mixture's sf, and aliases of them
    choices = _choices("curve", "which")
    assert choices == ["sf", "sfdiff", "cdf_ratio", "pdf_ratio", "rh_ratio",
                       "cdfratio", "pdfratio", "rhratio"]
    for choice in choices:
        assert choice in ("sf", "sfdiff", *CURVE_KINDS) or cli._ALIASES[choice] in CURVE_KINDS
