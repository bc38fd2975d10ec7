"""The functions behind the benchmark's required traced metrics still exist.

``perfbench/tracer.py`` wraps maghom functions by the (module, name)
pairs of its ``SPANS`` table, and one it cannot find only makes its
metrics read 0.  CI's traced runs require the spans and counts of the
functions below to be nonzero, so a rename has to fail here, in the
tier-1 suite, and not only in that step.  The table is read from the
tracer file as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# each function whose span or count a traced CI row requires, with its span
REQUIRED = {
    "enumerate_sequences": "homology.enumerate",
    "boundary_matrix": "homology.boundary",
    "is_diagonal_up_to": "homology.diagonal",
    "smith_normal_form": "snf.snf",
    "build_pawful_S": "matching.certificate",
    "build_matching": "matching.build_matching",
    "search_structure": "matching.search",
    "verify_matching": "morse.verify",
    "is_acyclic": "morse.acyclic",
    "morse_rank_check": "morse.rank_check",
    "poly_gcd": "polyq.gcd",
    "_det_bareiss": "magnitude.det",
    "magnitude_series": "magnitude.series",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("maghom_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_traced_function_resolves_under_its_traced_name():
    tracer = _tracer()
    spans = {attr: (module, span) for module, attr, span, _ in tracer.SPANS}
    for attr, span in REQUIRED.items():
        assert attr in spans, f"{attr} is not in the tracer's SPANS"
        module, traced = spans[attr]
        assert traced == span, (attr, traced)
        importlib.import_module(f"maghom.{module}")
        fn = tracer._lookup(module, attr)
        assert callable(fn) and fn.__name__ == attr, f"maghom.{module}.{attr} is not found"
