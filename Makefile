PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-benchmarks bench bench-check bench-smoke perfbench-smoke validate lint analyze check faults-smoke rack-smoke tenants-smoke

test:
	$(PYTHON) -m pytest -x -q

# Requires ruff (pip install ruff); configuration lives in pyproject.toml.
lint:
	ruff check src tests tools benchmarks

# Full static-analysis battery: simlint SIM001-SIM016 (always; parses in
# parallel through the .simlint-cache AST store) + ruff/mypy (when
# installed -- missing tools are skipped with a notice, see tools/analyze.py;
# CI makes them mandatory with --require ruff,mypy).
analyze:
	$(PYTHON) tools/analyze.py --jobs 4

# Runtime correctness gate: checked-mode runs (invariant sanitizer) plus
# the dual-run determinism digest (see `repro check --help`).
check:
	$(PYTHON) -m repro.cli check --quick

# Fault-injection degradation matrix at reduced scale with the invariant
# sanitizer on; exits nonzero if any cell crashes, hangs, or violates an
# invariant (see docs/api.md).
faults-smoke:
	$(PYTHON) -m repro.cli faults --quick --checked --jobs 4

# Rack-tier smoke gate: a tiny 2-server rack sweep with the invariant
# sanitizer attached to every server (see `repro rack --help`).
rack-smoke:
	$(PYTHON) -m repro.cli rack --servers 2 --flows 1024 --rate 20 \
		--duration-us 100 --jobs 2 --checked

# Tenant-tier smoke gate: the 2-tenant noisy-neighbor isolation sweep
# under DDIO vs IDIO vs IOCA with checked mode on; fails unless the
# victim's p99 improves under IOCA's way partitioning (see docs/api.md).
tenants-smoke:
	$(PYTHON) tools/tenants_smoke.py

test-benchmarks:
	$(PYTHON) -m pytest benchmarks -q

bench:
	$(PYTHON) tools/bench.py

# Fails if any workload's wall time regressed >25% vs the last
# committed BENCH_*.json (see tools/bench.py --help).
bench-check:
	$(PYTHON) tools/bench.py --check

# CI smoke gate: the trimmed matrix (reference burst + both ends of the
# sweep scaling curve) under a generous threshold that only catches
# order-of-magnitude breakage -- shared-runner timing is too noisy for
# the 25% gate (see docs/performance.md).
bench-smoke:
	$(PYTHON) tools/bench.py --quick --check --threshold 150

# Byte-identity gate: perfbench's self-tests (no simulation), then one
# burst_idio iteration, which exits 1 unless its fingerprint digest equals
# the one recorded in perfbench/digests.json.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench -q
	$(PYTHON) perfbench/run.py --workload burst_idio --seconds 0 --trace 0

validate:
	$(PYTHON) -m repro.cli validate --quick
