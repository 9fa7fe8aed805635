"""The benchmark's traced run still finds every library function it wraps.

`perfbench/spans.py` replaces each traced layer where its callers look it
up (`LAYERS`); renaming or moving one of those functions makes
`Recorder.install` raise AttributeError.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans


def hook_sites():
    """(owner, attribute) of every name the recorder patches."""
    for layer, owners in spans.LAYERS.items():
        attr = spans._ATTR.get(layer, layer.rsplit(".", 1)[1])
        for owner_path in owners:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            yield owner, attr


def lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_recorder_patches_and_restores_every_hook():
    sites = list(hook_sites())
    originals = [lookup(owner, attr) for owner, attr in sites]
    rec = spans.Recorder()
    try:
        rec.install()
        patched = [lookup(owner, attr) for owner, attr in sites]
    finally:
        rec.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    assert [lookup(owner, attr) for owner, attr in sites] == originals
