"""Write the nilpotent problem nil(r, s, k) as JSON.

    python tests/nil_family.py R S K OUT.json

nil(r, s, k) is k maps from perfbench's free_class2(r) to free_class2(s),
drawn from one fresh random.Random(9).  For each map in turn, draw the
noncentral images (r rows of s entries in -2..2), then the central parts of
the generators' images (r rows of C(s, 2) entries in -2..2); each z_ij goes
to the commutator of the images of x_i and x_j.  Only perfbench/problems.py
is read, for the presentations and the document layout.  All work happens
under __main__, so importing this file (as pytest's --doctest-modules does)
runs nothing.
"""

if __name__ == "__main__":
    import argparse
    import json
    import random
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for name in ("r", "s", "k"):
        parser.add_argument(name, type=int)
    parser.add_argument("out", type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from problems import free_class2, nil_doc

    r, s, k = args.r, args.s, args.k
    rng = random.Random(9)
    pairs = [(p, q) for p in range(s) for q in range(p + 1, s)]
    maps = []
    for _ in range(k):
        noncentral = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(r)]
        central = [[rng.randint(-2, 2) for _ in pairs] for _ in range(r)]
        images = [noncentral[i] + central[i] for i in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                u, v = noncentral[i], noncentral[j]
                images.append([0] * s + [u[p] * v[q] - u[q] * v[p] for p, q in pairs])
        maps.append(images)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(nil_doc(free_class2(r), free_class2(s), maps), fh)
