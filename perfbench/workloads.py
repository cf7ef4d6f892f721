"""Workload definitions: the CLI operations each workload runs and the
expected facts their outputs are checked against.

Every input is derived from the workload seed through ``random.Random``, so
the same seed gives the same designs, CLI seeds and operation order.  Sizes
are fixed per workload (only signs, block layouts and CLI seeds vary with the
seed), so the cost of a run stays comparable across seeds.

This module imports nothing from numpy or tangleflow at import time: the
set-up probe times ``import tangleflow`` itself.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("separation", "relax", "spectrum")

BUNDLED = (
    "chained_4x4.weave",
    "checker_4x4.weave",
    "entangled_pair.graph",
    "honeycomb.graph",
    "layered_2x2.weave",
    "mixed_stack_6x6.weave",
    "split_2x2.weave",
    "square_checker.graph",
    "square_flat.graph",
    "three_blocks_6x6.weave",
    "two_blocks_4x4.weave",
    "untangled_pair.graph",
)
ENTANGLED_BUNDLED = (
    "chained_4x4.weave",
    "checker_4x4.weave",
    "entangled_pair.graph",
    "honeycomb.graph",
    "square_checker.graph",
)
# bundled untangled designs for `scaling`, with the number of separation
# series each prints (one per cut between its K tangle components)
SEPARATION_DESIGNS = {"untangled_pair.graph": 1, "three_blocks_6x6.weave": 2}

# Per-workload sizes.  "full" is what the benchmark measures; "tiny" runs in
# seconds and exists for the benchmark's own tests.
SIZES = {
    "full": {
        # t_max=500: dt sits at dt_max=0.1 after ~20 steps, and the fit window
        # [50, 500] holds 45 samples at the default record stride of 100
        "separation": {"t_max": 500, "seeds": 2},
        "relax": {
            "bundled_seeds": 8,
            "checkers": ((2, 2), (3, 3), (4, 6), (6, 6), (6, 8), (8, 8), (10, 10), (12, 12)),
            "checker_seeds": 6,
            "verify": True,
        },
        "spectrum": {
            # the Jacobi eigensolver takes ~1.6 s at 8x8 and ~9 s at 10x10
            "spectrum_checkers": ((4, 4), (6, 6), (8, 8), (4, 6)),
            "spectrum_stacks": (4, 6),
            "classify_checkers": ((4, 4), (8, 8), (12, 12), (16, 16), (20, 20), (24, 24), (6, 10), (12, 18)),
            "classify_stacks": (4, 8, 12, 16, 20, 24),
        },
    },
    "tiny": {
        "separation": {"t_max": 300, "seeds": 1},
        "relax": {
            "bundled_seeds": 1,
            "checkers": ((2, 2), (4, 6)),
            "checker_seeds": 1,
            "verify": False,
        },
        "spectrum": {
            "spectrum_checkers": ((4, 4),),
            "spectrum_stacks": (4,),
            "classify_checkers": ((6, 6),),
            "classify_stacks": (8,),
        },
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``expect`` holds what its checker needs:
    scaling: series count; relax: dict(sign, traj, config); verify: None;
    spectrum: (n_blue, n_red); classify: the exact stdout line."""

    argv: tuple
    expect: object = None

    @property
    def kind(self):
        return self.argv[0]


def checkerboard(n_blue, n_red, phase):
    """Alternating signs: every pair of adjacent threads interlocks, so the
    weave is one tangle component (entangled)."""
    return tuple(
        tuple(phase if (i + j) % 2 == 0 else -phase for j in range(n_red))
        for i in range(n_blue)
    )


def stacked_blocks(sizes):
    """Square checkerboard blocks on the diagonal, block a strictly above
    block b for a < b.  Untangled with one tangle component per block, listed
    top to bottom; returns (sign, expected classify line)."""
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    block = [k for k, size in enumerate(sizes) for _ in range(size)]
    n = sum(sizes)
    sign = tuple(
        tuple(
            (1 if (i + j - 2 * starts[block[i]]) % 2 == 0 else -1)
            if block[i] == block[j]
            else (1 if block[i] < block[j] else -1)
            for j in range(n)
        )
        for i in range(n)
    )
    parts = []
    for k, (start, size) in enumerate(zip(starts, sizes), 1):
        threads = range(start + 1, start + size + 1)
        blue = ",".join(f"b{t}" for t in threads)
        red = ",".join(f"r{t}" for t in threads)
        parts.append(f"W{k}={{{blue}|{red}}}")
    return sign, f"untangled, K={len(sizes)}: " + ", ".join(parts)


def _block_sizes(rng, n):
    """Random split of n threads into at least two blocks of 2 to 4."""
    while True:
        sizes = []
        left = n
        while left > 0:
            size = rng.choice([s for s in (2, 3, 4) if s <= left and left - s != 1])
            sizes.append(size)
            left -= size
        if len(sizes) >= 2:
            return tuple(sizes)


def _entangled_line(n_blue, n_red):
    blue = ",".join(f"b{i}" for i in range(1, n_blue + 1))
    red = ",".join(f"r{j}" for j in range(1, n_red + 1))
    return f"entangled, K=1: W1={{{blue}|{red}}}"


def bundled_sign(path):
    """Crossing signs of a design file, flattened in vertex order (row-major
    for weaves), read straight from its `sign` lines."""
    sign = []
    for line in Path(path).read_text().splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] == "sign":
            sign.extend(1 if t in ("+", "1", "+1") else -1 for t in tokens[1:])
    return tuple(sign)


def _write_weave(workdir, name, sign):
    from tangleflow.designio import serialize_design
    from tangleflow.model import WeaveDesign

    path = Path(workdir) / name
    design = WeaveDesign(n_blue=len(sign), n_red=len(sign[0]), sign=sign, spacing=1.0)
    path.write_text(serialize_design(design))
    return str(path)


def setup(name, seed, size, root, workdir):
    """Generate and write the workload's design files; return its Ops."""
    rng = random.Random(f"{name}:{seed}")
    designs = Path(root) / "designs"
    params = SIZES[size][name]
    ops = []
    if name == "separation":
        for design, n_series in SEPARATION_DESIGNS.items():
            for _ in range(params["seeds"]):
                argv = (
                    "scaling", str(designs / design),
                    "--seed", str(rng.randrange(10**6)),
                    "--t-max", str(params["t_max"]),
                )
                ops.append(Op(argv, n_series))
    elif name == "relax":
        targets = [
            (str(designs / d), bundled_sign(designs / d), params["bundled_seeds"])
            for d in ENTANGLED_BUNDLED
        ]
        for n_blue, n_red in params["checkers"]:
            sign = checkerboard(n_blue, n_red, rng.choice((1, -1)))
            path = _write_weave(workdir, f"checker_{n_blue}x{n_red}.weave", sign)
            targets.append((path, tuple(s for row in sign for s in row), params["checker_seeds"]))
        for path, sign, n_seeds in targets:
            for _ in range(n_seeds):
                k = len(ops)
                traj = str(Path(workdir) / f"op{k}.csv")
                config = str(Path(workdir) / f"op{k}.json")
                argv = (
                    "relax", path, "--seed", str(rng.randrange(10**6)),
                    "--out-traj", traj, "--out-config", config,
                )
                ops.append(Op(argv, {"sign": sign, "traj": traj, "config": config}))
        if params["verify"]:
            ops.extend(Op(("verify", str(designs / d))) for d in BUNDLED)
    elif name == "spectrum":
        weaves = []  # (kind, sign) or ("classify", sign, expected line)
        for n_blue, n_red in params["spectrum_checkers"]:
            weaves.append(("spectrum", checkerboard(n_blue, n_red, rng.choice((1, -1)))))
        for n in params["spectrum_stacks"]:
            weaves.append(("spectrum", stacked_blocks(_block_sizes(rng, n))[0]))
        for n_blue, n_red in params["classify_checkers"]:
            sign = checkerboard(n_blue, n_red, rng.choice((1, -1)))
            weaves.append(("classify", sign, _entangled_line(n_blue, n_red)))
        for n in params["classify_stacks"]:
            weaves.append(("classify", *stacked_blocks(_block_sizes(rng, n))))
        for k, (kind, sign, *line) in enumerate(weaves):
            path = _write_weave(workdir, f"w{k}_{len(sign)}x{len(sign[0])}.weave", sign)
            expect = line[0] if kind == "classify" else (len(sign), len(sign[0]))
            ops.append(Op((kind, path), expect))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops
