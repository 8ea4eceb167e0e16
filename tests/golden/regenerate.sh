#!/bin/sh
# Regenerate every golden file from the checkout's `zii` CLI (no install needed).
# Run from the repository root:  sh tests/golden/regenerate.sh
set -eu
cd "$(dirname "$0")/../.."
G=tests/golden
export ZII_THREADS=1
zii() { PYTHONPATH=src python3 -m zii "$@"; }

zii mask --degree 2                                                    > "$G/mask-degree-2.txt"        2>/dev/null
zii mask --degree 2 --format svg                                       > "$G/mask-degree-2.svg"        2>/dev/null
zii mask --degree 1 --format report                                    > "$G/mask-report-degree-1.txt" 2>/dev/null
zii matrix --family product-exponential --degree 1                     > "$G/matrix-product-exponential-degree-1.txt" 2>/dev/null
zii inverse --family product-exponential --degree 2                    > "$G/inverse-product-exponential-degree-2.txt" 2>/dev/null
zii equations --family sum-power-exp --degree 1                        > "$G/equations-sum-power-exp-degree-1.txt" 2>/dev/null
zii equations --spec specs/bilinear-box.zii --degree 1                 > "$G/equations-bilinear-box-degree-1.txt" 2>/dev/null
zii equations --family sum-power-exp --degree 1 --out "$G/equations-sum-power-exp-degree-1.json" > /dev/null 2>&1
zii collapse --family sum-power-exp --max-degree 3                     > "$G/collapse-sum-power-exp.txt" 2>/dev/null
zii collapse --family disk-quadratic --max-degree 2                    > "$G/collapse-disk-quadratic.txt" 2>/dev/null
zii check --family sum-power-exp --at ell=1 --degree 1 --max-pq 3      > "$G/check-sum-power-exp-ell-1.txt" 2>/dev/null
