"""Parse a seeded corpus of design texts and print a digest of the outcomes.

    python3 scripts/parse_corpus.py [--seed 0] [--mutations 30000]

Run from the root of a checkout; it imports `src/tangleflow` and needs
nothing built, and uses only the standard library besides.  The corpus is
the bundled designs, a few edge texts (empty, comments only, a bare kind)
and --mutations seeded mutations of the bundled designs: each applies one
to three of deleting, duplicating or swapping lines, replacing or dropping a
token, and inserting a line of a random directive with random values.

Every text ends in a design or in a parse error.  The script prints the
count of each outcome, the number of distinct `raise` lines in `designio`
that the errors came from, and one sha256 over the outcomes in corpus
order: `repr(design)`, or the error's class, message, line and column.  Two
parsers that give the same digest on the same corpus parse every text of
it alike.  Any other exception is a parser fault: it is printed, and the
exit code is 1.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tangleflow.designio import parse_design  # noqa: E402
from tangleflow.errors import DesignSemanticError, DesignSyntaxError  # noqa: E402

EDGE_TEXTS = [
    "",
    "# only a comment\n\n   \n",
    "kind weave\n",
    "kind entangled-graph\n",
    "kind\n",
    "kind weave\nthreads 1 1\nspacing 1\nsign +\n",
    "kind entangled-graph\nvertices 1\nlattice 1 0 0 1\nsign -\n",
]

DIRECTIVES = ["kind", "vertices", "lattice", "edge", "sign", "threads", "spacing", "frobnicate"]
TOKENS = [
    "0", "1", "2", "3", "-1", "+1", "-0", "007", "1.5", "-2.5", "1e3", "1e400", "nan", "inf", "-inf",
    "+", "-", "*", "x", "one", "0x1", "#", "entangled-graph", "weave", "banana",
] + DIRECTIVES


def mutate(lines: list, rng: random.Random) -> list:
    """One seeded mutation of a design's lines, each a list of tokens."""
    lines = [list(tokens) for tokens in lines]
    op = rng.randrange(6)
    k = rng.randrange(len(lines)) if lines else 0
    if op == 0 and lines:
        del lines[k]
    elif op == 1 and lines:
        lines.insert(k, list(lines[k]))
    elif op == 2 and len(lines) > 1:
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif op == 3 and lines:
        lines[k][rng.randrange(len(lines[k]))] = rng.choice(TOKENS)
    elif op == 4 and lines:
        del lines[k][rng.randrange(len(lines[k]))]
    else:
        values = [rng.choice(TOKENS) for _ in range(rng.randrange(6))]
        lines.insert(rng.randrange(len(lines) + 1), [rng.choice(DIRECTIVES)] + values)
    return lines


def corpus(seed: int, mutations: int) -> list:
    bundled = [path.read_text() for path in sorted((ROOT / "designs").iterdir())]
    rng = random.Random(seed)
    texts = bundled + EDGE_TEXTS
    for _ in range(mutations):
        lines = [line.split() for line in rng.choice(bundled).splitlines()]
        for _ in range(rng.randint(1, 3)):
            lines = mutate(lines, rng)
        sep = rng.choice([" ", " ", "\t", "  "])
        texts.append("\n".join(sep.join(tokens) for tokens in lines) + "\n")
    return texts


def outcome(text: str):
    """The outcome's class name, its text and, for an error, the line of
    designio it was raised at."""
    try:
        design = parse_design(text)
    except (DesignSyntaxError, DesignSemanticError) as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        site = frame.lineno if frame.filename.endswith("designio.py") else None
        key = (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None))
        return key[0], repr(key), site
    return type(design).__name__, repr(design), None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mutations", type=int, default=30000)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    counts = collections.Counter()
    sites = set()
    faults = 0
    texts = corpus(args.seed, args.mutations)
    for text in texts:
        try:
            name, result, site = outcome(text)
        except Exception:
            faults += 1
            print(f"parser fault on {text!r}:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        counts[name] += 1
        sites.add(site)
        digest.update(result.encode() + b"\n")
    sites.discard(None)
    print(f"texts {len(texts)}")
    for name, count in sorted(counts.items()):
        print(f"{name} {count}")
    print(f"raise sites reached {len(sites)}")
    print(f"sha256 {digest.hexdigest()}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
