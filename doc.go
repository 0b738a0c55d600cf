// Package paravis is a from-scratch reproduction of "Extending High-Level
// Synthesis with High-Performance Computing Performance Visualization"
// (Huthmann, Podobas, Sommer, Koch, Sano — IEEE CLUSTER 2020).
//
// The paper extends the Nymble HLS compiler so the generated FPGA
// accelerator carries a hardware profiling unit whose records convert into
// Paraver traces. This module rebuilds the entire stack in Go:
//
//   - internal/minic    — C-subset + OpenMP 4.0 frontend (lexer/parser/sema) and
//     the AST front end the analyses share: traversal, name binding,
//     counted-loop shape, loop names (DESIGN.md §3a)
//   - internal/ir       — dataflow IR with loop nests as variable-latency ops
//   - internal/lower    — AST -> IR: SSA, if-conversion, unrolling, deps
//   - internal/schedule — static pipeline scheduling (Nymble's synthesis step)
//   - internal/hw       — compiled datapath representation
//   - internal/sim      — cycle-level Nymble-MT multi-threaded execution model
//   - internal/mem      — Avalon/DRAM/BRAM/preloader memory system
//   - internal/hwsem    — hardware semaphore and barrier
//   - internal/profile  — the paper's profiling unit (states + event counters)
//   - internal/paraver  — the streaming trace: .prv/.pcf/.row writer, scanner
//     and (in analysis) the one fold every view and statistic is read off
//   - internal/area     — ALM/register/Fmax model for the overhead study
//   - internal/host     — host-side interpreter for code around the region
//   - internal/core     — the public facade tying the flow together
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured record of every table and
// figure. The benchmarks in bench_test.go regenerate each experiment; the
// layered performance benchmark is the benchmark/ module (BENCHMARK.json).
package paravis
