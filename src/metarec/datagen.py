"""Synthetic rating corpus in the `::`-separated three-file layout.

The generator builds a deliberately imbalanced population: a head of users
whose profile values cluster on popular feature values and whose ratings
track global item quality, and a tail whose profiles use rarer values and
whose ratings hinge on strong personal genre tastes.  Per-user adaptation
therefore matters far more for tail users, which is the regime the adaptive
learners are meant to exploit.
"""

import math
import os
from typing import Dict

import numpy as np

from .errors import ConfigError

HEAD_GENDER = "M"
HEAD_AGES = (25, 35)
TAIL_AGES = (18, 45, 50, 56)
HEAD_OCCUPATIONS = tuple(range(7))
TAIL_OCCUPATIONS = tuple(range(7, 21))
HEAD_ZIP_DIGITS = ("1", "2", "3")
TAIL_ZIP_DIGITS = ("4", "5", "6", "7", "8", "9")
GENRE_POOL = (
    "Action", "Comedy", "Drama", "Thriller", "Romance",
    "Sci-Fi", "Horror", "Documentary", "Animation", "Crime",
)
BASE_TIMESTAMP = 975_000_000


def _pick(rng, head, tail, head_prob):
    pool = head if rng.uniform() < head_prob else tail
    return pool[int(rng.integers(0, len(pool)))]


def generate_corpus(
    out_dir,
    n_users: int = 500,
    n_movies: int = 300,
    seed: int = 0,
    major_fraction: float = 0.8,
    head_affinity: float = 0.85,
    tail_affinity: float = 0.2,
    minor_taste_scale: float = 1.5,
    noise_sd: float = 0.3,
    min_items: int = 10,
    max_items: int = 25,
) -> Dict[str, str]:
    """Write users.dat, movies.dat, ratings.dat under ``out_dir``."""
    if n_users < 10 or n_movies < 10:
        raise ConfigError("need at least 10 users and 10 movies")
    if not (0.0 < major_fraction < 1.0):
        raise ConfigError("major_fraction must be in (0, 1)")
    if min_items < 2 or max_items < min_items:
        raise ConfigError("item counts must satisfy 2 <= min_items <= max_items")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ConfigError(f"noise_sd must be finite and non-negative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    genre_values = []
    for _ in range(n_movies):
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(GENRE_POOL), size=k, replace=False)
        genre_values.append("|".join(GENRE_POOL[i] for i in sorted(picks)))
    quality = 0.6 * rng.standard_normal(n_movies)
    genre_effect = {g: rng.standard_normal() for g in sorted(set(genre_values))}

    movies_path = os.path.join(out_dir, "movies.dat")
    with open(movies_path, "w", encoding="latin-1") as fh:
        for m in range(n_movies):
            year = 1980 + int(rng.integers(0, 25))
            fh.write(f"{m + 1}::Feature {m + 1} ({year})::{genre_values[m]}\n")

    users_path = os.path.join(out_dir, "users.dat")
    ratings_path = os.path.join(out_dir, "ratings.dat")
    n_major = int(round(major_fraction * n_users))
    with open(users_path, "w", encoding="latin-1") as uf, \
            open(ratings_path, "w", encoding="latin-1") as rf:
        for u in range(n_users):
            is_head = u < n_major
            affinity = head_affinity if is_head else tail_affinity
            gender = HEAD_GENDER if rng.uniform() < affinity else "F"
            age = _pick(rng, HEAD_AGES, TAIL_AGES, affinity)
            occupation = _pick(rng, HEAD_OCCUPATIONS, TAIL_OCCUPATIONS, affinity)
            zip_head = _pick(rng, HEAD_ZIP_DIGITS, TAIL_ZIP_DIGITS, affinity)
            zipcode = zip_head + "".join(str(d) for d in rng.integers(0, 10, size=4))
            uf.write(f"{u + 1}::{gender}::{age}::{occupation}::{zipcode}\n")

            taste = 0.0 if is_head else minor_taste_scale * rng.choice((-1.0, 1.0))
            count = int(rng.integers(min_items, max_items + 1))
            movie_ids = rng.choice(n_movies, size=min(count, n_movies), replace=False)
            for step, m in enumerate(movie_ids):
                signal = 3.0 + quality[m] + taste * genre_effect[genre_values[m]]
                rating = int(np.clip(np.rint(signal + noise_sd * rng.standard_normal()), 1, 5))
                stamp = BASE_TIMESTAMP + int(rng.integers(0, 10_000_000)) + step
                rf.write(f"{u + 1}::{m + 1}::{rating}::{stamp}\n")

    return {"users": users_path, "movies": movies_path, "ratings": ratings_path}
