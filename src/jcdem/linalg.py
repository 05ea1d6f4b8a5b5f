"""Empty: the benchmark's tracer (bench/tracing.py) imports every module it
traces, this one included, so it stays until the tracer skips a missing
module.  The dense partial trace lives in tests/oracles.py as a reference."""
