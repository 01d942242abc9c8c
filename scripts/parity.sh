#!/usr/bin/env bash
# Bit-exactness check of the working tree against a base revision.
#
#   scripts/parity.sh <base-rev>
#
# Builds the base revision's `promptem` from `git archive` into
# target/parity (reruns against the same revision build incrementally)
# and the working tree's as usual. Exports REL-HETER at seed 7, then runs
# the same `match` (60 pretrain steps, 2 epochs) with each binary at
# `--threads 1` and `--threads 2`, from the repo root with identical
# arguments, so `run_meta` reports the same git SHA on both sides. Each
# pair must give canonically identical traces (`report --diff
# --canonical`, no field masked) and byte-identical predictions. Exits
# non-zero naming the first pair that differs.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/parity.sh <base-rev>" >&2
    exit 2
fi
base_sha="$(git rev-parse --verify "$1^{commit}")"

parity_dir="$PWD/target/parity"
base_src="$parity_dir/src"
if [ "$(cat "$base_src/.parity-rev" 2>/dev/null)" != "$base_sha" ]; then
    rm -rf "$base_src"
    mkdir -p "$base_src"
    # -m stamps the files with the extraction time, not the commit's, so
    # cargo rebuilds what changed since the previous base.
    git archive "$base_sha" | tar -x -m -C "$base_src"
    echo "$base_sha" >"$base_src/.parity-rev"
fi

echo "==> building $1 ($base_sha) into target/parity"
CARGO_TARGET_DIR="$parity_dir" cargo build --release --offline -q \
    --manifest-path "$base_src/Cargo.toml" -p promptem-cli --bin promptem
echo "==> building the working tree"
cargo build --release --offline -q -p promptem-cli --bin promptem
base_bin="$parity_dir/release/promptem"
new_bin="$PWD/target/release/promptem"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
"$new_bin" export --benchmark REL-HETER --dir "$work/data" --seed 7 --trace warn >/dev/null

for threads in 1 2; do
    for side in base new; do
        bin="$base_bin"
        [ "$side" = new ] && bin="$new_bin"
        "$bin" match --left "$work/data/left.csv" --right "$work/data/right.csv" \
            --labels "$work/data/train.csv" --seed 7 --trace warn \
            --pretrain-steps 60 --epochs 2 --threads "$threads" \
            --output "$work/pred.csv" \
            --metrics-out "$work/$side-t$threads.jsonl" >/dev/null
        # The trace names the output path, so both sides write the same one.
        mv "$work/pred.csv" "$work/$side-t$threads.csv"
    done
    echo "==> --threads $threads"
    "$new_bin" report --diff "$work/base-t$threads.jsonl" "$work/new-t$threads.jsonl" \
        --canonical || {
        echo "parity: traces differ at --threads $threads" >&2
        exit 1
    }
    cmp "$work/base-t$threads.csv" "$work/new-t$threads.csv" || {
        echo "parity: predictions differ at --threads $threads" >&2
        exit 1
    }
    echo "predictions identical: $(wc -l <"$work/new-t$threads.csv") lines"
done
echo "parity: $1 and the working tree agree at --threads 1 and 2"
