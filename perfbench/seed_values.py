"""Write sin_sq_values.json: the sin_sq operator values the additive workload checks.

No formula gives these point values, so they are the library's own answers at
the commit that defined the benchmark.  Rerun only to redefine the benchmark:

    PYTHONPATH=src python3 perfbench/seed_values.py
"""

import json

from halfsum import DEFAULT, Flavor
from halfsum import corpus, engine

from jobs import SIN_SQ_FILE, SIN_SQ_POINTS


def main():
    f = corpus.corpus_map()[("sin_sq", Flavor.ADDITIVE)]
    out = {}
    for label, method in corpus.method_catalog().items():
        if method.kernel.flavor is not Flavor.ADDITIVE:
            continue
        apply = (engine.apply_dual if method.variant is engine.Variant.DUAL
                 else engine.apply_forward)
        out[label] = {}
        for x in SIN_SQ_POINTS:
            v = apply(method.kernel, f, x, DEFAULT)
            out[label][str(x)] = [v.real, v.imag]
    with open(SIN_SQ_FILE, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(label)}: {json.dumps(points)}"
                                   for label, points in out.items()) + "\n}\n")


if __name__ == "__main__":
    main()
