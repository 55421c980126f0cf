"""The functions the benchmark traces are still functions of the package.

``perfbench/run.py`` names the functions each command must reach and the
functions it reports per layer, and operations in ``perfbench/corpus.py``
can name more.  The tracer wraps only the public module-level functions of
each layer module and two methods, so a deleted or renamed function makes a
traced run report it as never called.  This test reads those names (without
running the benchmark) and checks that each one is still wrapped.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import random

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _literals(filename, names):
    """The values of the module-level literal assignments ``names``."""
    with open(os.path.join(BENCH, filename)) as fh:
        tree = ast.parse(fh.read())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                out[target.id] = ast.literal_eval(node.value)
    assert sorted(out) == sorted(names)
    return out


def _corpus_reaches():
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", os.path.join(BENCH, "corpus.py")
    )
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return {
        name
        for make in corpus.WORKLOADS.values()
        for op in make(random.Random(7))
        for name in op.reaches
    }


def _is_traced(name, methods):
    layer, attr = name.split(".")
    mod = importlib.import_module("traintrack." + layer)
    if (layer, attr) in methods:
        return inspect.isfunction(getattr(getattr(mod, methods[layer, attr]), attr, None))
    fn = vars(mod).get(attr)
    return (
        not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
    )


def test_every_traced_name_is_a_traced_function():
    run = _literals("run.py", ("ALWAYS_REACHED", "REACH", "LAYER_FUNCTIONS"))
    methods = {
        (layer, meth): cls
        for layer, cls, meth in _literals("tracer.py", ("METHODS",))["METHODS"]
    }
    names = set(run["ALWAYS_REACHED"]) | set(run["LAYER_FUNCTIONS"]) | _corpus_reaches()
    for reach in run["REACH"].values():
        names.update(reach)
    assert "maps.classify_strata" in names
    missing = sorted(n for n in names if not _is_traced(n, methods))
    assert missing == []
