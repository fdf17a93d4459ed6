"""Write the torus problem T(k, n, m), or its x6 variant, as JSON.

    python tests/torus_family.py K N M SEED OUT.json [--x6] [--repeat]

K maps Z^M -> Z^N, drawn from one fresh random.Random(SEED): map by map, N
rows of M entries in -4..4 each.  With --x6, map 1 becomes the zero matrix
and maps 2..K are multiplied by 6.  With --repeat, applied after --x6, map 2
becomes a copy of map 1, so the stack has a zero block, falls short of full
row rank and counts infinite.  k12 is `12 6 66 1`, T(k, n, m) is
`K N M 2`.  All work happens under __main__, so importing this file (as
pytest's --doctest-modules does) runs nothing.
"""

if __name__ == "__main__":
    import argparse
    import json
    import random
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for name in ("k", "n", "m", "seed"):
        parser.add_argument(name, type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--x6", action="store_true")
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    maps = [
        [[rng.randint(-4, 4) for _ in range(args.m)] for _ in range(args.n)]
        for _ in range(args.k)
    ]
    if args.x6:
        maps = [[[0] * args.m for _ in range(args.n)]] + [
            [[6 * x for x in row] for row in mat] for mat in maps[1:]
        ]
    if args.repeat:
        maps[1] = maps[0]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"kind": "abelian-multi", "maps": maps}, fh)
