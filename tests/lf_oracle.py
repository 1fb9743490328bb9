"""Dense push-forward and pullback, kept as a test oracle.

These are the loops the indexed versions replaced: push-forward walks every
fiber component over every target component and evaluates the function at
its source, pullback walks every source component and evaluates the
function at its image.  Both read the whole map on every call.
"""

from fractions import Fraction

from hallalg.errors import InputError
from hallalg.lf import FiniteSupportFn, homotopy_weight


def dense_pushforward(f, alpha):
    if alpha.base != f.source:
        raise InputError("function is not based on the map's source")
    if f.fibers is None:
        raise InputError("pushforward needs fiber data")
    out = {}
    for tcomp, fib in zip(f.target.components, f.fibers):
        total = Fraction(0)
        for fo, src in zip(fib.lftype.orders, fib.incl):
            val = alpha(src)
            if val:
                total += val * homotopy_weight(fo)
        if total:
            out[tcomp] = total
    return FiniteSupportFn(f.target, out)


def dense_pullback(f, beta):
    if beta.base != f.target:
        raise InputError("function is not based on the map's target")
    out = {}
    for c, t in zip(f.source.components, f.component_map):
        val = beta(t)
        if val:
            out[c] = val
    return FiniteSupportFn(f.source, out)
