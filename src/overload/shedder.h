// Load shedder: applies the overload ladder (see governor.h) to one
// classified batch by *compaction* — survivors are copied (views only,
// never packet bytes) into a caller-owned scratch batch with
// index-aligned verdicts, so the downstream dispatch paths
// (pipeline::ParallelAnalyzer::offer_batch, the serial verdict loop)
// run unchanged on the compacted batch. At L0 apply() declines and the
// caller uses the original batch — the disabled/zero-pressure path is
// byte-identical by construction.
//
// Shedding priority (most expendable first — Zoom media flows are the
// *last* thing degraded, matching the instrument's purpose):
//   L1  Reject verdicts. The sketch tier already summarized them
//       during classify(); dropping the dispatch-side accounting replay
//       is pure CPU savings with zero effect on Zoom metrics.
//   L2  Admitted packets that carry neither kFlagZoomShaped nor
//       kFlagStunPort: kept iff mix64(flow_hash ^ seed) % 100 <
//       l2_keep_pct. The decision depends only on the canonical flow
//       hash, so a flow is kept or shed *as a whole* and identical
//       replays shed identically.
//   L3  Zoom-media admits (kFlagZoomShaped): per-flow packet sampling
//       keyed by the front end's first-sight-order flow slot — keep
//       packet k of a flow iff k % l3_keep_one_in == 0. Slot ids are
//       shard-count-independent, so governed runs stay serial-vs-
//       sharded identical. STUN-flagged admits are never sampled (they
//       arm P2P candidates; rare and load-bearing).
//   L4  the whole batch, head-dropped before classification.
// FullParse packets are never shed below L4: the probe could not prove
// anything about them, so the full decode path must see them.
//
// Without a front end there are no verdicts, so L1..L3 have nothing to
// key on and only L4 sheds (documented degradation of --no-frontend).
//
// Every shed packet lands in ShedStats by level; the epoch engine folds
// the per-epoch deltas into AnalyzerHealth::overload_shed_l*, which is
// what the end-to-end conservation check sums.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "capture/batch_filter.h"
#include "net/packet.h"

namespace zpm::overload {

/// Shedding knobs. Defaults match docs/ROBUSTNESS.md §5.
struct ShedConfig {
  /// Seed for the L2 flow-hash keep decision. Fixed default so replays
  /// shed identically without configuration.
  std::uint64_t seed = 0x7a6f6f6d70657266ULL;  // "zoomperf"
  /// Percent (0..100) of non-Zoom-candidate flows kept at L2.
  std::uint32_t l2_keep_pct = 25;
  /// At L3, keep one of every N packets per media flow (N >= 1).
  std::uint32_t l3_keep_one_in = 4;

  bool operator==(const ShedConfig&) const = default;
};

/// Monotone shed totals, by the level that shed each packet.
struct ShedStats {
  std::uint64_t l1_packets = 0;
  std::uint64_t l2_packets = 0;
  std::uint64_t l3_packets = 0;
  std::uint64_t l4_packets = 0;
  std::uint64_t shed_bytes = 0;       ///< wire bytes, all levels
  std::uint64_t batches_dropped = 0;  ///< whole-batch L4 head-drops

  [[nodiscard]] std::uint64_t total_packets() const {
    return l1_packets + l2_packets + l3_packets + l4_packets;
  }

  bool operator==(const ShedStats&) const = default;
};

/// See file comment. Single-threaded (producer side).
class LoadShedder {
 public:
  explicit LoadShedder(ShedConfig config = {});

  /// Applies `level` to a classified run. Returns true when shedding
  /// was applied: survivors (possibly zero) are in `out_run` /
  /// `out_verdicts` (both fully overwritten). Returns false when the
  /// run passes untouched (level <= 0, or nothing to key on) — the
  /// caller must then use the original batch, which keeps the
  /// governed-but-calm path byte-identical to the ungoverned one.
  /// `verdicts` may be null (no front end): only L4 sheds then.
  bool apply(int level, std::span<const net::RawPacketView> run,
             const capture::BatchVerdicts* verdicts,
             std::vector<net::RawPacketView>& out_run,
             capture::BatchVerdicts& out_verdicts);

  /// Epoch rotation hook: the front end is rebuilt and its first-sight
  /// slot ids restart from zero, so the per-flow sampling counters must
  /// restart with them.
  void reset_flow_state() { flow_counters_.clear(); }

  [[nodiscard]] const ShedStats& stats() const { return stats_; }
  [[nodiscard]] const ShedConfig& config() const { return config_; }

  /// The L2 keep decision for one flow (pure; exposed for tests).
  [[nodiscard]] bool keep_at_l2(std::uint64_t flow_hash) const;

 private:
  ShedConfig config_;
  ShedStats stats_;
  /// Per-flow packet counters for L3 sampling, indexed by the front
  /// end's flow slot (first-sight order, grown on demand).
  std::vector<std::uint32_t> flow_counters_;
};

}  // namespace zpm::overload
