"""Decompose a seeded corpus of weaves and print a digest of the results.

    python3 scripts/decomposition_corpus.py [--seed 0] [--exhaustive 4] [--random 4000] [--stacks 1000]

Run from the root of a checkout; it imports `src/tangleflow` and needs
nothing built, and uses only the standard library besides.  The corpus is,
in this order:

- every sign matrix with at most --exhaustive blue and at most --exhaustive
  red threads (74,954 at the default 4, 682 at 3);
- --random seeded random matrices of 1 to 24 threads per family, each with
  its own density of +1 entries between 0.05 and 0.95;
- --stacks seeded stacks of 1 to 7 blocks, each block a random sign matrix
  of 1 to 4 threads per family, every blue thread of a block over the red
  threads of the blocks below it and under those of the blocks above;
- the bundled weaves.

For each weave the script records `repr` of the pair
(`weavely_connected_components`, `tangle_decomposition`), or the class and
message of a `TangleflowError` either raised.  It prints the number of
weaves, of order violations and of errors, and one sha256 over the records
in corpus order.  Two implementations that give the same digest decompose
every weave of the corpus alike.  An order violation is a crossing between
threads of two different components that breaks the printed order: the blue
thread on top while its component is printed lower, or the reverse.  Any
other exception is a fault: it is printed.  The exit code is 1 if there is
a fault or an order violation.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tangleflow.designio import design_to_system, load_design  # noqa: E402
from tangleflow.errors import TangleflowError  # noqa: E402
from tangleflow.model import WeaveDesign, build_weave_system  # noqa: E402
from tangleflow.topology import tangle_decomposition, weavely_connected_components  # noqa: E402


def exhaustive(max_threads: int = 4):
    for nb in range(1, max_threads + 1):
        for nr in range(1, max_threads + 1):
            for entries in itertools.product((1, -1), repeat=nb * nr):
                yield tuple(entries[i * nr:(i + 1) * nr] for i in range(nb))


def random_matrix(rng: random.Random, nb: int, nr: int, density: float) -> tuple:
    return tuple(tuple(1 if rng.random() < density else -1 for _ in range(nr)) for _ in range(nb))


def random_matrices(rng: random.Random, count: int):
    for _ in range(count):
        nb, nr = rng.randint(1, 24), rng.randint(1, 24)
        yield random_matrix(rng, nb, nr, rng.uniform(0.05, 0.95))


def random_stacks(rng: random.Random, count: int):
    for _ in range(count):
        blocks = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))]
        owner_blue = [k for k, (nb, _) in enumerate(blocks) for _ in range(nb)]
        owner_red = [k for k, (_, nr) in enumerate(blocks) for _ in range(nr)]
        inner = [random_matrix(rng, nb, nr, 0.5) for nb, nr in blocks]
        first_blue = [sum(nb for nb, _ in blocks[:k]) for k in range(len(blocks))]
        first_red = [sum(nr for _, nr in blocks[:k]) for k in range(len(blocks))]
        yield tuple(
            tuple(
                inner[a][i - first_blue[a]][j - first_red[a]] if a == b else (1 if a < b else -1)
                for j, b in enumerate(owner_red)
            )
            for i, a in enumerate(owner_blue)
        )


def order_violations(system, decomposition) -> int:
    """Crossings between threads of two components that disagree with the
    components' top-to-bottom order."""
    level_blue, level_red = {}, {}
    for level, component in enumerate(decomposition.components):
        level_blue.update(dict.fromkeys(component.blue, level))
        level_red.update(dict.fromkeys(component.red, level))
    return sum(
        (level_blue[i] > level_red[j]) if s == 1 else (level_blue[i] < level_red[j])
        for i, row in enumerate(system.design.sign, 1)
        for j, s in enumerate(row, 1)
    )


def corpus(seed: int, max_threads: int, n_random: int, n_stacks: int):
    rng = random.Random(seed)
    for sign in itertools.chain(exhaustive(max_threads), random_matrices(rng, n_random), random_stacks(rng, n_stacks)):
        yield build_weave_system(WeaveDesign(n_blue=len(sign), n_red=len(sign[0]), sign=sign))
    for path in sorted((ROOT / "designs").glob("*.weave")):
        yield design_to_system(load_design(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--exhaustive", type=int, default=4, help="most threads per family in the exhaustive part")
    parser.add_argument("--random", type=int, default=4000)
    parser.add_argument("--stacks", type=int, default=1000)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = violations = errors = faults = 0
    for system in corpus(args.seed, args.exhaustive, args.random, args.stacks):
        count += 1
        try:
            decomposition = tangle_decomposition(system)
            record = repr((weavely_connected_components(system), decomposition))
            violations += order_violations(system, decomposition)
        except TangleflowError as exc:
            errors += 1
            record = repr((type(exc).__name__, str(exc)))
        except Exception:
            faults += 1
            print(f"fault on {system.design!r}:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        digest.update(record.encode() + b"\n")
    print(f"weaves {count}")
    print(f"order violations {violations}")
    print(f"errors {errors}")
    print(f"sha256 {digest.hexdigest()}")
    return 1 if faults or violations else 0


if __name__ == "__main__":
    sys.exit(main())
