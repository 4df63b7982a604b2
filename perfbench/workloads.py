"""The benchmark's workloads and the generated corpora they read.

Every workload takes the benchmark seed: it seeds corpus generation (or the
synthetic draw) and is the one trial seed of every experiment.  Corpora are
generated with ``metarec.datagen.generate_corpus`` and cached per workload,
seed and generator source, so generation is never timed and the program
under test only ever sees the three files.

Each workload also has a smoke size, a tiny version that finishes in seconds
and reaches the same code paths; the smoke test uses it.
"""

import dataclasses
import hashlib
import json
import os
import shutil
from typing import Dict, List, Optional, Tuple

# the criterion-6 trainer settings of the acceptance suite
CORPUS_TRAINER = dict(batch_size=16, embedding_dim=16, decision_dims=(64, 32, 1),
                      lr_hidden_dims=(32, 16), outer_lr=0.05, lr_scale=0.1,
                      fixed_inner_lr=1e-5)
# the criterion-4 trainer and population of the acceptance suite
SYNTH_TRAINER = dict(epochs=1, batch_size=32, embedding_dim=4, decision_dims=(8, 1),
                     lr_hidden_dims=(8, 4), outer_lr=0.02, lr_scale=0.1,
                     fixed_inner_lr=1e-3)
SYNTH_POPULATION = dict(p1=0.8, p2=0.2, x1=0.0, x2=1.0, n_tasks=2000, noise_sd=0.1)
ALGORITHMS = ("paml", "at-paml", "reg-paml", "maml-fixed", "meta-sgd", "transfer")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One set of inputs: a corpus (or synthetic population) and its runs.

    ``runs`` holds one TrainerConfig keyword set per ``run_experiment`` call;
    the ``smoke_*`` fields replace their full-size counterparts in smoke mode.
    """

    name: str
    runs: Tuple[Dict, ...]
    corpus: Optional[Dict] = None
    synthetic: Optional[Dict] = None
    smoke_corpus: Optional[Dict] = None
    smoke_synthetic: Optional[Dict] = None
    smoke_trainer: Dict = dataclasses.field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ml1m-scale-reg-paml",
            corpus=dict(n_users=6040, n_movies=3706, min_items=20, max_items=310),
            runs=(dict(algorithm="reg-paml", epochs=1, **CORPUS_TRAINER),),
            smoke_corpus=dict(n_users=80, n_movies=60, min_items=20, max_items=40),
        ),
        Workload(
            name="corpus-at-paml",
            corpus=dict(n_users=500, n_movies=300, minor_taste_scale=2.5,
                        min_items=15, max_items=40),
            runs=(dict(algorithm="at-paml", epochs=4, tree_capacity=1000, **CORPUS_TRAINER),),
            smoke_corpus=dict(n_users=80, n_movies=40, minor_taste_scale=2.5,
                              min_items=15, max_items=25),
            smoke_trainer=dict(epochs=3, tree_capacity=50),
        ),
        Workload(
            name="synth-sweep",
            synthetic=SYNTH_POPULATION,
            runs=tuple(dict(algorithm=a, **SYNTH_TRAINER) for a in ALGORITHMS),
            smoke_synthetic=dict(SYNTH_POPULATION, n_tasks=100),
        ),
    )
}


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


CORPUS_FILES = ("ratings", "users", "movies")


def corpus(metarec, cache_root: str, label: str, seed: int,
           params: Dict) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Paths and sha256 digests of the three corpus files, generating on a miss.

    The cache key covers the generator's parameters and source, so a change
    to either yields a fresh corpus.  A corpus is written to a scratch
    directory and renamed into place, and its recorded digests are checked on
    every hit, so an interrupted or altered corpus is regenerated.
    """
    generator = metarec.datagen
    with open(generator.__file__, "rb") as fh:
        key_source = fh.read() + json.dumps(params, sort_keys=True).encode("utf-8")
    key = hashlib.sha256(key_source).hexdigest()[:12]
    directory = os.path.join(cache_root, f"{label}-seed{seed}-{key}")
    paths = {name: os.path.join(directory, f"{name}.dat") for name in CORPUS_FILES}
    record = os.path.join(directory, "sha256.json")
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if recorded == {name: file_sha256(p) for name, p in paths.items()}:
            return paths, recorded
        shutil.rmtree(directory)
    partial = directory + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    generator.generate_corpus(partial, seed=seed, **params)
    digests = {name: file_sha256(os.path.join(partial, f"{name}.dat")) for name in CORPUS_FILES}
    with open(os.path.join(partial, "sha256.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True)
    os.rename(partial, directory)
    return paths, digests


def experiments(metarec, workload: Workload, seed: int, smoke: bool, cache_root: str,
                out_root: str) -> Tuple[List[Tuple[str, object]], Dict[str, str]]:
    """(label, ExperimentConfig) per run of the workload, plus corpus digests.

    ``metarec`` is the imported package under test.
    """
    config = metarec.config
    digests: Dict[str, str] = {}
    if workload.corpus is not None:
        params = workload.smoke_corpus if smoke else workload.corpus
        label = workload.name + ("-smoke" if smoke else "")
        paths, digests = corpus(metarec, cache_root, label, seed, params)
        dataset = dict(dataset_kind="movielens",
                       movielens=config.MovielensConfig(
                           preprocess=metarec.tasks.PreprocessConfig(), **paths))
    else:
        population = workload.smoke_synthetic if smoke else workload.synthetic
        dataset = dict(dataset_kind="synthetic",
                       synthetic=config.SyntheticConfig(**population))

    configs = []
    for run in workload.runs:
        trainer = dict(run, **workload.smoke_trainer) if smoke else run
        label = trainer["algorithm"]
        configs.append((label, config.ExperimentConfig(
            output_dir=os.path.join(out_root, label),
            trainer=metarec.meta_learners.TrainerConfig(**trainer),
            trials=1, seeds=(seed,), parallel=False, **dataset)))
    return configs, digests
