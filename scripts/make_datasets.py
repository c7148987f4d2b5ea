"""Generate the synthetic benchmark files used by the experiment scripts.

Writes a vowel-shaped multi-class svmlight file (n=528, d=10, m=11) and a
MovieLens-100k-shaped ratings file (943 users, 1682 items, 100k ratings,
levels 1..5); optionally also a 1M-shaped ratings.dat. The files go through
the package's real loaders in the experiment scripts.
"""

import argparse
from pathlib import Path

from polyfactor.data import save_svmlight
from polyfactor.synth import make_multiclass, make_ratings, write_movielens


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--with-1m", action="store_true",
                    help="also write a 1,000,209-line ratings.dat (1M-shaped)")
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    vowel = make_multiclass(528, 10, 11, n_basis=5, seed=args.seed, margin=0.25)
    save_svmlight(vowel, args.out_dir / "vowel_like.svm")
    print(f"wrote {args.out_dir / 'vowel_like.svm'} (n=528, d=10, m=11)")

    users, items, ratings = make_ratings(943, 1682, 100_000, rank=4,
                                         seed=args.seed, noise=0.1)
    write_movielens(users, items, ratings, args.out_dir / "ml100k_like.u.data")
    print(f"wrote {args.out_dir / 'ml100k_like.u.data'} (100k ratings, 943+1682 ids)")

    if args.with_1m:
        users, items, ratings = make_ratings(6040, 3900, 1_000_209, rank=4,
                                             seed=args.seed, noise=0.1)
        write_movielens(users, items, ratings, args.out_dir / "ml1m_like.ratings.dat",
                        sep="::")
        print(f"wrote {args.out_dir / 'ml1m_like.ratings.dat'} (1,000,209 ratings)")


if __name__ == "__main__":
    main()
