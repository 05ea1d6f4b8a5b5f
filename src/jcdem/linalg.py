"""Empty: only the benchmark's tracer (bench/tracing.py) imports it, as it
imports every module it traces; ROADMAP items 1 and 15 delete it.  The dense
partial trace lives in tests/oracles.py as a reference."""
