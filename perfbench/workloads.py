"""The benchmark's workloads: named lists of experiment configs.

Each workload is a list of config dicts in the shape that
``kernelcomp.cli.ExperimentConfig.from_dict`` accepts.  Only the seed comes
from the command line; every other parameter is fixed here, so the same seed
always gives the same inputs.  README.md in this directory says why each
workload was chosen and which layers it is meant to load.

This module imports nothing from numpy or kernelcomp, so run.py can read
it without paying the program's import cost.
"""

WORKLOADS = {
    # dim-1 section assembly and SVD norm bounds; `operators` dominates.
    "disk-sections": [
        ("theorem1", {}),
        ("bergman-bound", {}),
        ("hardy-bound", {}),
        # not inner, so the defect has full rank and all 65 modes run
        ("summation", {"symbol": {"type": "taylor",
                                  "coeffs": [[0, 0], [0.5, 0], [0, 0], [0.4, 0]]},
                       "section_degree": 64}),
        ("inf-estimate", {}),
    ],
    # one config, three witness-search regimes: budget exhausted (r = 0.5),
    # witness mid-budget (r = 0.75), witness at trial 0 (r >= 0.95)
    "positivity-search": [
        ("br", {"r_values": [0.5, 0.75, 0.95, 1.0]}),
    ],
    # many small dim-2 sections, BallPoly arithmetic, the serial sampler and
    # one large Gram
    "ball-multipliers": [
        ("ball-lemma", {"maps": 30}),
        ("ball-bound", {}),
        ("szego-identity", {}),
        ("psd", {"point_count": 400,
                 "spec": {"kind": "ball", "dim": 2, "alpha": 2.0}}),
    ],
}

# Experiments long enough (>= 0.3 s) to get their own time metric.
TIMED_EXPERIMENTS = ("theorem1", "bergman-bound", "hardy-bound", "summation",
                     "br", "ball-lemma", "ball-bound")

# sha256 of each experiment's JSON report at seed 0 with one BLAS thread.
# Report bytes depend on the BLAS thread count and may drift in the last
# digits with the BLAS build, so a mismatch is counted as
# `cli.digest_changed`, never as a failure.
REFERENCE_SEED = 0
REFERENCE_DIGESTS = {
    "disk-sections": {
        "theorem1": "2b9f6fba147f6de0b5fd38121615f0780c5463e20f7ad606abd6574fb6604ace",
        "bergman-bound": "237415662028736da1b7dd678045d1b094b0990b5160969696e687cd899dc461",
        "hardy-bound": "c64ce66a11fb55113cb6bf90e8d828d7b6b42d866808842328da18c82c8e0a3c",
        "summation": "976162e03b55cf52d627ceeef0ccadc368756a86896672660ee95fd4f01ea8ee",
        "inf-estimate": "98f66a1acacf8d19531de4adbcb4735a9ac4a29b1761260cb7ddf44e0262a6e6",
    },
    "positivity-search": {
        "br": "defe567b8c896070f6e52117d19affa3fbdbfee5eb8eb6e3b0737807a6384de3",
    },
    "ball-multipliers": {
        "ball-lemma": "e0aa62b3bfb210fc5de45b66a87dbe2d9294f5b8abe0788110a4f336e2d06033",
        "ball-bound": "8af2bfd495e2ca90e850f9c481228be888edc75bbfc2960023b2302032d2939d",
        "szego-identity": "2ab931c14d31f46319bda6159edb1ebd9cc37a5860decd619890c4a22c5910cd",
        "psd": "1e40bfbaee913ff967cbe2d681afc0e9df6c2136b6d7dad296cc1380a30f35ba",
    },
}


def config_dicts(workload: str, seed: int) -> list:
    """The workload's configs at ``seed``, ready for ``from_dict``."""
    return [{"name": name, "seed": seed, "params": dict(params)}
            for name, params in WORKLOADS[workload]]
