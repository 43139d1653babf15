// Package benchmarks hosts cross-package micro-benchmarks for the
// simulator's hot paths: single cache accesses, DRAM reads and page walks,
// plus the graph and trace synthesis that builds every run's input.
// They exist to catch performance regressions in the engine itself —
// simulated instructions per second is the usability metric for a
// trace-driven simulator.
package benchmarks
