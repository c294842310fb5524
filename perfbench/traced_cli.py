"""Run one qblocks command with a span around every public layer call.

    PYTHONPATH=src python3 perfbench/traced_cli.py mult --n 5 --lambda 9,5,3,-1,-4

stdout and the exit code are those of ``python -m qblocks.cli`` with the same
arguments.  When the command returns, one line goes to stderr: SPAN_MARK
followed by a JSON object with

  spans     [name, start, end, parent index or -1], in start order
  counters  name -> count (Weight constructions, kernel terms out,
            super-Verma support, offset-cache hits and misses)

Spans stay in memory until then.  The package binds its functions with
``from ... import``, so each wrapped function is replaced in every loaded
``qblocks`` module that holds it, not only where it is defined.  A target
that the package no longer has is skipped and reports no calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

SPAN_MARK = "perfbench-spans "

KERNELS = ("binomial_product", "geometric_product", "convolve")

# (span name, defining module, attribute, counter fed with len(result)).
# The compiled kernels are wrapped too when they are built.  Missing modules
# and attributes are skipped.
TARGETS = [
    *[(f"kernels.{fn}", module, fn, f"kernels.{fn}.terms_out")
      for module in ("qblocks.kernels._pykernels", "qblocks.kernels._ckernels")
      for fn in KERNELS],
    ("charring.subset_sum_P", "qblocks.charring", "subset_sum_P", None),
    ("charring.verma_char", "qblocks.charring", "verma_char", None),
    ("charring.super_verma_char", "qblocks.charring", "super_verma_char",
     "charring.super_verma_char.support"),
    ("filtration.linkage_check", "qblocks.filtration", "linkage_check", None),
    ("filtration.restriction_flag", "qblocks.filtration", "restriction_flag", None),
    ("filtration.induction_flag", "qblocks.filtration", "induction_flag", None),
    ("filtration.res_block_mult", "qblocks.filtration", "res_block_mult", None),
    ("filtration.ind_block_mult", "qblocks.filtration", "ind_block_mult", None),
    ("filtration.ind_block_mult_split", "qblocks.filtration", "ind_block_mult_split", None),
    ("filtration.verma_flag_extract", "qblocks.filtration", "verma_flag_extract", None),
    ("weyl.orbit", "qblocks.weyl", "orbit", None),
    ("weyl.dot_orbit", "qblocks.weyl", "dot_orbit", None),
    ("weyl.all_perms", "qblocks.weyl", "all_perms", None),
    ("lattice.classify", "qblocks.lattice", "classify", None),
    ("lattice.leq", "qblocks.lattice", "leq", None),
    ("sampling.sample_weights", "qblocks.sampling", "sample_weights", None),
    ("cli.serialize", "qblocks.cli", "_emit", None),
]

# all_perms is a generator: calling it does no work, so the wrapper drains it
# inside the span and hands back an iterator over the list.
DRAINED = {"weyl.all_perms"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name, fn, on_result=None, drain=False):
        """``fn`` inside a span; ``on_result(span, result)`` runs after it closes."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                on_result(span, result)
            return iter(result) if drain else result

        return traced

    def count_size(self, counter: str):
        def on_result(span, result):
            self.counters[counter] += len(result)

        return on_result


def _qblocks_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "qblocks" or name.startswith("qblocks."))
    ]


def _replace_everywhere(orig, replacement) -> None:
    for mod in _qblocks_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap every target and the selftest criteria; return the traced
    ``qblocks.cli.main``."""
    import qblocks.cli  # loads every layer
    import qblocks.selftest
    from qblocks.lattice import Weight

    for name, module_name, attr, size_counter in TARGETS:
        orig = getattr(sys.modules.get(module_name), attr, None)
        if orig is None:  # compiled kernels not built, or target removed
            continue
        on_result = tracer.count_size(size_counter) if size_counter else None
        _replace_everywhere(orig, tracer.wrap(name, orig, on_result, name in DRAINED))

    # Each criterion span is named after the number its result carries.
    def name_criterion(span, result):
        span[0] = f"selftest.criterion_{result.number}"

    for attr in [a for a in vars(qblocks.selftest) if a.startswith("check_")]:
        orig = getattr(qblocks.selftest, attr)
        _replace_everywhere(orig, tracer.wrap("selftest." + attr, orig, name_criterion))

    init = Weight.__init__

    def counting_init(self, coords):
        tracer.counters["lattice.Weight.constructed"] += 1
        init(self, coords)

    Weight.__init__ = counting_init
    return tracer.wrap("cli.main", qblocks.cli.main)


def offset_cache_counts() -> dict[str, int]:
    """Hits and misses summed over every memoised charring function whose
    name mentions offsets, whichever of them exist."""
    from qblocks import charring

    hits = misses = 0
    for name, cached in vars(charring).items():
        if "offset" not in name or not hasattr(cached, "cache_info"):
            continue
        info = cached.cache_info()
        hits += info.hits
        misses += info.misses
    return {"charring.offset_cache.hits": hits, "charring.offset_cache.misses": misses}


def main(argv: list[str]) -> int:
    tracer = Tracer()
    traced_main = install(tracer)
    rc = traced_main(argv)
    sys.stdout.flush()
    counters = dict(tracer.counters)
    counters.update(offset_cache_counts())
    report = {"spans": tracer.spans, "counters": counters}
    sys.stderr.write("\n" + SPAN_MARK + json.dumps(report, separators=(",", ":")) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
