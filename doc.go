// Package repro is a from-scratch Go reproduction of "Speculative
// Data-Oblivious Execution: Mobilizing Safe Prediction For Safe and
// Efficient Speculative Execution" (Yu, Mantri, Torrellas, Morrison,
// Fletcher — ISCA 2020).
//
// The implementation lives under internal/:
//
//	internal/isa        instruction set, sparse memory, builder, golden executor
//	internal/bpred      tournament branch predictor (direct branches only: no BTB)
//	internal/mem        caches (banks/MSHRs/slices), TLB, DRAM, DO lookup path
//	internal/coherence  directory-based MESI across cores
//	internal/pipeline   out-of-order core with STT taint tracking and Obl-Lds
//	internal/sdo        the SDO framework (§IV) and location predictors (§V-D)
//	internal/workload   SPEC17-like kernels + random program generator
//	internal/attack     in-simulator Spectre V1 and FP-channel penetration tests
//	internal/harness    the §VIII evaluation: Figures 6-8, Tables I-III
//	internal/core       public facade: Config, Machine, Result, Table II variants
//
// Executables: cmd/sdosim (single run), cmd/experiments (regenerate every
// table and figure), cmd/pentest (security evaluation). Runnable examples
// are under examples/. The benchmarks in bench_test.go regenerate each
// figure/table at a reduced budget; see EXPERIMENTS.md.
package repro
