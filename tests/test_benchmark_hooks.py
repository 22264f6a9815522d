"""The traced benchmark run (perfbench/run.py --trace 1) patches names of the
package from outside: every public function of each layer, three verify
samplers, the check registry, BoundaryMap.apply_raw and coarse.optimize.
This test installs and removes its tracer, so that a change deleting one of
those names fails here rather than only in the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

from hypext import verify
from hypext.maps import BoundaryMap

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_state():
    mods = {key: mod for key, mod in sys.modules.items()
            if mod is not None and (key == "hypext" or key.startswith("hypext."))}
    return ({key: dict(vars(mod)) for key, mod in mods.items()},
            vars(BoundaryMap)["apply_raw"])


def _changed(before, after):
    (mods_a, apply_a), (mods_b, apply_b) = before, after
    names = [f"{key}.{attr}" for key, attrs in mods_a.items()
             for attr, obj in attrs.items() if mods_b[key].get(attr) is not obj]
    return names + (["BoundaryMap.apply_raw"] if apply_a is not apply_b else [])


def test_tracer_install_and_uninstall_restore_every_name():
    spans = _load_spans()
    for layer in spans.LAYERS:
        importlib.import_module(f"hypext.{layer}")
    assert set(spans.SAMPLER_OF_CHECK) <= set(verify.CHECK_IDS)
    before = _package_state()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = set(_changed(before, _package_state()))
        assert set(spans.SAMPLER_OF_CHECK.values()) <= set(tracer.names)
    finally:
        tracer.uninstall()
    assert {"hypext.coarse.optimize", "hypext.verify.ALL_CHECKS",
            "hypext.verify._thick_base_config", "hypext.verify._admissible_angle_config",
            "hypext.verify._random_triangles", "BoundaryMap.apply_raw"} <= patched
    assert _changed(before, _package_state()) == []
