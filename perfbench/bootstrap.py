"""Imports vmfcorr from the source tree of the checkout that holds the benchmark."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "correlation", "vmf", "oracles", "arrays", "radar")


def import_vmfcorr():
    """Import vmfcorr and its modules from ROOT/src, never from an installed
    copy; exit with status 2 when the sources are missing."""
    if not (SRC / "vmfcorr" / "__init__.py").is_file():
        sys.exit(f"error: vmfcorr sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    vmfcorr = importlib.import_module("vmfcorr")
    if not Path(vmfcorr.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: vmfcorr was imported from {vmfcorr.__file__}, not from {SRC}")
    for name in MODULES:
        try:
            importlib.import_module(f"vmfcorr.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"vmfcorr.{name}":
                raise
    return vmfcorr
