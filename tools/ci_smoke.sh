#!/usr/bin/env bash
# Console-script smoke checks of an installed `transonic`, run in the current
# directory (outputs land there):
#
#   python -m pip install . && cd "$(mktemp -d)" && bash /path/to/tools/ci_smoke.sh
#
# The quarter-box multiplier needs scipy.fft dst/idst/idct of type 1;
# lump-check, eigen, norms and the kernel field (kernel, and the ball scan of
# kernel-scan) each build fields on the quarter box.  Reruns must give the
# same bytes, and so must two residual runs on one construction, whose
# far-field beta is exactly 0 and whose sups are finite; the norms' star,
# read from one spectral table per field, must equal the construction's
# report; a usage error, a flag the subcommand does
# not read and an output path that is a file must each leave as exit 1 with
# one stderr line; residual must refuse a directory without report.json,
# whose epsilon it runs at, and an epsilon = 0 construction, with one stderr
# line; kernel-scan must refuse an order the residue route does not take
# before it makes its output directory, and so must construct and
# kernel-scan a half-width that is not finite, construct a tolerance that is
# not finite, and kernel a point outside the box, with one stderr line; a
# ball scan on which QUADPACK warns must exit 2 with one stderr line; far
# and near kernel scans must rerun to the same bytes; the on-axis gp
# kernel must pass with every warning an error; the ball integral must stay
# within 1e-6 of the benchmark's reference.  Importing the CLI loads neither
# the kernel layer, scipy.integrate, scipy.sparse.linalg nor scipy.linalg; a
# 256^2 construct and a 512^2 eigen write the same bytes under one and two
# BLAS threads (at 64^2 a BLAS dot in MINRES, or the BLAS sums of scipy's
# lobpcg, would not show).
set -euo pipefail

python -c "import sys, transonic.cli; late = {'transonic.kernel', 'scipy.integrate', 'scipy.sparse.linalg', 'scipy.linalg'} & set(sys.modules); assert not late, late"
transonic lump-check --nx 32 --ny 32 --Lx 10 --Ly 10 --out lump-check
transonic construct --nx 64 --ny 64 --Lx 20 --Ly 20 --epsilon 0.1 --out c
transonic norms --in c/phi.bin --epsilon 0.1 > c-norms.csv
python -c "import csv, json; (row,) = csv.DictReader(open('c-norms.csv')); star = json.load(open('c/report.json'))['final_phi_star']; assert float(row['star']) == star, (row['star'], star)"
transonic construct --nx 64 --ny 64 --Lx 20 --Ly 20 --epsilon 0.1 --out c2
for f in phi f1 f2 g1; do cmp "c/$f.bin" "c2/$f.bin"; done
OPENBLAS_NUM_THREADS=1 transonic construct --nx 256 --ny 256 --epsilon 0.1 --out t1
OPENBLAS_NUM_THREADS=2 transonic construct --nx 256 --ny 256 --epsilon 0.1 --out t2
for f in phi f1 f2 g1; do cmp "t1/$f.bin" "t2/$f.bin"; done
OPENBLAS_NUM_THREADS=1 transonic eigen --epsilon 0.1 --nx 512 --ny 512 --k 4 --seed 2 --out et1
OPENBLAS_NUM_THREADS=2 transonic eigen --epsilon 0.1 --nx 512 --ny 512 --k 4 --seed 2 --out et2
for f in phi0 phi1; do cmp "et1/$f.bin" "et2/$f.bin"; done
if transonic construct --threads 2 --out t; then exit 1; else test $? -eq 1; fi
touch not-a-dir
if transonic construct --nx 64 --ny 64 --Lx 20 --Ly 20 --out not-a-dir 2> not-a-dir.err; then exit 1; else test $? -eq 1; fi
test "$(wc -l < not-a-dir.err)" -eq 1
cp -r c c-no-report && rm c-no-report/report.json
if transonic residual --in c-no-report; then exit 1; else test $? -eq 1; fi
test ! -e c-no-report/gp_residual.json
transonic residual --in c
transonic residual --in c --out c-res2
cmp c/gp_residual.json c-res2/gp_residual.json
python -c "import json, math; rec = json.load(open('c/gp_residual.json')); sups = [rec[k] for k in ('res1_sup', 'res2_sup', 'res1_weighted', 'res2_weighted', 'theorem_gap')]; assert rec['beta'] == 0.0 and all(map(math.isfinite, sups)), rec"
transonic construct --nx 64 --ny 64 --Lx 20 --Ly 20 --epsilon 0 --out c0
if transonic residual --in c0 2> c0.err; then exit 1; else test $? -eq 1; fi
test "$(wc -l < c0.err)" -eq 1 && test ! -e c0/gp_residual.json
transonic eigen --nx 64 --ny 64 --Lx 20 --Ly 20 --epsilon 0.1 --out e
transonic eigen --nx 64 --ny 64 --Lx 20 --Ly 20 --epsilon 0.1 --out e2
for f in phi0 phi1; do cmp "e/$f.bin" "e2/$f.bin"; done
python -c "import json; rec = json.load(open('e/eigen.json')); assert rec['solver'] == 'lobpcg' and rec['max_residual'] <= 1e-7, rec"
transonic eigen --nx 16 --ny 16 --Lx 80 --Ly 80 --epsilon 0.1 --k 6 --out e16
transonic norms --in e/phi1.bin --epsilon 0.1
transonic norms --in c/f2.bin --epsilon 0.1
transonic kernel --m 1 --n 0 --x 3 --y 2 --epsilon 0.2 --nx 64 --ny 64
transonic kernel --m 1 --n 1 --x 3 --y 2 --epsilon 0.2 --nx 64 --ny 64
python -c "import sys, warnings; warnings.simplefilter('error'); from transonic.cli import main; sys.exit(main(['kernel','--preset','gp','--m','1','--n','2','--x','5','--y','0','--epsilon','0.2','--nx','64','--ny','64']))"
if transonic kernel-scan --nx 64 --m 1 --n 0 --out ks64 2> ks64.err; then exit 1; else test $? -eq 1; fi
test "$(wc -l < ks64.err)" -eq 1 && test ! -e ks64
if transonic kernel-scan --m 0 --n 0 --out ks00; then exit 1; else test $? -eq 1; fi
if transonic kernel-scan --epsilon 0.2 --mode integral --m 3 --n 0 --out ks30 2> ks30.err; then exit 1; else test $? -eq 2; fi
test "$(wc -l < ks30.err)" -eq 1
test ! -e ks00
if transonic construct --nx 64 --ny 64 --Lx inf --out c-inf 2> c-inf.err; then exit 1; else test $? -eq 1; fi
test "$(wc -l < c-inf.err)" -eq 1 && test ! -e c-inf
if transonic construct --nx 64 --ny 64 --Lx 20 --Ly 20 --tol inf --out c-tol 2> c-tol.err; then exit 1; else test $? -eq 1; fi
test "$(wc -l < c-tol.err)" -eq 1 && test ! -e c-tol
if transonic kernel-scan --Lx nan --m 1 --n 0 --out ks-nan 2> ks-nan.err; then exit 1; else test $? -eq 1; fi
test "$(wc -l < ks-nan.err)" -eq 1 && test ! -e ks-nan
if transonic kernel --m 1 --n 0 --x 1e9 --y 2 --Lx 10 --nx 64 --ny 64 2> k-far.err; then exit 1; else test $? -eq 1; fi
test "$(wc -l < k-far.err)" -eq 1
transonic kernel-scan --mode far --preset gp --m 2 --n 0 --epsilon 0.2 --Lx 120 --out ks
for mode in far near; do
  for run in 1 2; do transonic kernel-scan --mode "$mode" --m 1 --n 2 --epsilon 0.2 --out "ks-$mode$run"; done
  cmp "ks-${mode}1/report.csv" "ks-${mode}2/report.csv"
done
python -c "import csv; rows = list(csv.DictReader(open('ks/report.csv'))); assert len(rows) == 3 and all((r['m'], r['n'], r['preset'], r['epsilon']) == ('2', '0', 'gp', '0.2') for r in rows), rows"
transonic kernel-scan --mode integral --Lx 2 --m 1 --n 1 --epsilon 0.2 --out ball
python -c "import csv; (row,) = csv.DictReader(open('ball/report.csv')); v = float(row['integral']); assert abs(v - 0.41542914237237066) <= 1e-6 * 0.41542914237237066, v"
