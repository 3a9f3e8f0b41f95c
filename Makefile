.PHONY: test acceptance golden bench install

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

# Run the benchmark (BENCHMARK.json) once on every workload, 30 s each;
# records go to .bench_work/.
bench:
	for w in example_cli hires_pyramid gradcheck_rgb; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done
