.PHONY: test acceptance golden bench smoke pairs fingerprint install

install:
	pip install -e . --no-build-isolation

test:
	python3 -m pytest -q

acceptance:
	python3 -m pytest tests/test_acceptance.py -v -s

# Regenerate the checked-in golden loss-history CSV (run after intentional
# numeric changes, then review the diff). BLAS/OpenMP pinned to 1 thread, as
# in the benchmark, which compares its example run with this file byte for byte.
golden:
	OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 python3 scripts/regen_golden.py

# One SHA-256 over the CLI reports, gradcheck reports and objective outputs
# (about 10 s); a refactor prints the same digest as its parent.
fingerprint:
	python3 scripts/fingerprint.py

# Run the benchmark (BENCHMARK.json) once on every workload, 30 s each;
# records go to .bench_work/.
bench:
	for w in example_cli hires_pyramid gradcheck_rgb; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

# Smoke test of the benchmark itself: every workload at the shortest length,
# untraced and traced (about 30 s).
smoke:
	python3 perfbench/smoke.py

# Alternating untraced benchmark runs of a parent checkout and this one on
# shared seeds: each metric's median [quartiles] per side, the paired median
# change and the win count (the protocol for a speedup claim); JSON=path
# also writes that summary, with each side's machine settings, to path.
#   make pairs PARENT=../parent WORKLOAD=example_cli PAIRS=10 RUN_SECONDS=30 SEED=701
WORKLOAD ?= example_cli
PAIRS ?= 10
RUN_SECONDS ?= 30
SEED ?= 1
pairs:
	$(if $(PARENT),,$(error set PARENT to the root of the parent checkout))
	python3 scripts/ab_pairs.py $(PARENT) . --workload $(WORKLOAD) --pairs $(PAIRS) \
		--seconds $(RUN_SECONDS) --first-seed $(SEED) $(if $(JSON),--json $(JSON))
