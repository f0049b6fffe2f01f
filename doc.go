// Package mcsm is a from-scratch Go reproduction of "A Current Source
// Model for CMOS Logic Cells Considering Multiple Input Switching and
// Stack Effect" (Amelifard, Hatami, Fatemi, Pedram — DATE 2008).
//
// The repository contains the paper's contribution — the MCSM current
// source model with internal (stack) node state — together with every
// substrate it needs: a transistor-level circuit simulator standing in for
// HSPICE, a 130 nm-class cell library, the SIS and internal-node-blind
// baseline models, an NLDM voltage-based baseline, a crosstalk bench, a
// waveform-propagating timing engine, a parallel evaluation layer
// (internal/engine) with a shared characterization cache, a batched MIS
// skew/slew/load sweep engine (internal/sweep) producing the paper's
// delay-vs-skew surfaces with flat-SPICE error statistics, a benchmark
// frontend (internal/netlist) that parses ISCAS-85 .bench circuits,
// generates seeded synthetic DAG workloads, and technology-maps both onto
// the characterized cell library, and a timing service
// (internal/service, cmd/mcsm-serve): a concurrent HTTP daemon that
// keeps characterized models hot across requests, coalesces identical
// in-flight work, and answers bit-identically to the CLI tools.
//
// Start with DESIGN.md for the system inventory, the engine layer, the
// technology-mapping rules, and the per-experiment index; EXPERIMENTS.md
// for regenerating paper-vs-measured results and for the benchmark corpus
// (bundled under internal/netlist/testdata); and examples/quickstart for
// the API in sixty lines. The root bench_test.go regenerates every figure
// of the paper's evaluation:
//
//	go test -bench=Fig -benchtime=1x
package mcsm
