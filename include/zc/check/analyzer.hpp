#pragma once

#include "zc/check/ir.hpp"
#include "zc/check/report.hpp"
#include "zc/core/config.hpp"

namespace zc::check {

/// Timing-free dataflow analysis of a recorded offload IR.
///
/// Two tiers keep verdicts bit-identical across stress seeds even though
/// the IR carries no cross-thread order:
///
/// * **Tier A (cross-thread, order-free set algebra)** — for buffers
///   referenced from more than one thread, only facts independent of
///   interleaving are derived: the union of ever-mapped ranges per device
///   (use-before-map / device-mismatch when a kernel use is never covered),
///   and total map-begin vs map-end counts (double-release when ends
///   exceed begins).
/// * **Tier B (single-owner, precise walk)** — for buffers whose every
///   referencing op comes from one thread, that thread's stream is walked
///   through an abstract PresentTable (presence, refcount, device-dirty,
///   host-dirty-since-transfer), yielding precise op-index diagnostics:
///   stale-host-read-after-kernel-write without `update from`,
///   config-divergent host writes under live `to` mappings, overlapping
///   map clauses, double delete.
///
/// `config` only tunes messages/severity of config-divergence findings
/// (the structural verdicts are config-independent by construction).
[[nodiscard]] Analysis analyze(const OffloadIR& ir, omp::RuntimeConfig config);

}  // namespace zc::check
