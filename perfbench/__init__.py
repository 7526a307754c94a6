"""Repository benchmark: workloads, runner and out-of-program span tracing."""
