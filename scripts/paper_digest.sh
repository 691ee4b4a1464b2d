#!/bin/sh
# paper_digest.sh — pins the paper's reproduced results (make paper-digest).
#
# Runs every experiment (`sljexp -exp all -artifacts DIR`) and prints a
# digest: the SHA-256 of each artifact (figures, skeletons, the DBN
# structure), then the experiments' stdout with the wall-clock values
# masked. Those are the EXT7 pipeline timings and the GA/thinning timing
# lines; every accuracy, confusion matrix and count stays in. A change
# that moves any decision of the pipeline changes the digest.
#
#   sh scripts/paper_digest.sh               # print the digest
#   sh scripts/paper_digest.sh PAPER_DIGEST.txt
#                                            # compare with a committed digest
#
# The full run takes about 2 minutes on one core.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/sljexp" ./cmd/sljexp
"$workdir/sljexp" -exp all -artifacts "$workdir/art" > "$workdir/stdout.txt"

{
	echo "# sljexp -exp all: artifact SHA-256"
	(cd "$workdir/art" && sha256sum -- *)
	echo "# sljexp -exp all: stdout, wall-clock values masked"
	sed -E \
		-e 's/ in [0-9][0-9.]*(ns|µs|ms|s)\b/ in <time>/' \
		-e 's/\([0-9]+x slower/(<ratio> slower/' \
		-e 's/^(thinning \+ graph \+ key points:) .*/\1 <time>/' \
		-e 's/^(GA\/thinning wall-clock ratio:) [0-9]+x/\1 <ratio>/' \
		"$workdir/stdout.txt"
} > "$workdir/digest.txt"

if [ $# -eq 0 ]; then
	cat "$workdir/digest.txt"
	exit 0
fi
if ! diff -u "$1" "$workdir/digest.txt"; then
	echo "paper-digest: results differ from $1" >&2
	exit 1
fi
echo "paper-digest: results match $1"
