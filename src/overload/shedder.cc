#include "overload/shedder.h"

#include "overload/governor.h"

namespace zpm::overload {

namespace {

/// 64-bit finalizer (splitmix64): decorrelates the canonical flow hash
/// from the seed so the L2 keep set is an unbiased pseudo-random
/// `l2_keep_pct`% of flows.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

LoadShedder::LoadShedder(ShedConfig config) : config_(config) {
  if (config_.l3_keep_one_in == 0) config_.l3_keep_one_in = 1;
  if (config_.l2_keep_pct > 100) config_.l2_keep_pct = 100;
}

bool LoadShedder::keep_at_l2(std::uint64_t flow_hash) const {
  return mix64(flow_hash ^ config_.seed) % 100 < config_.l2_keep_pct;
}

bool LoadShedder::apply(int level, std::span<const net::RawPacketView> run,
                        const capture::BatchVerdicts* verdicts,
                        std::vector<net::RawPacketView>& out_run,
                        capture::BatchVerdicts& out_verdicts) {
  if (level <= 0 || run.empty()) return false;

  if (level >= kMaxLevel) {
    // L4: head-drop the whole run before any classification work.
    stats_.l4_packets += run.size();
    for (const auto& pkt : run) stats_.shed_bytes += pkt.data.size();
    ++stats_.batches_dropped;
    out_run.clear();
    out_verdicts.resize(0);
    return true;
  }

  // L1..L3 key on front-end verdicts; without them nothing can be
  // proven expendable, so the run passes untouched.
  if (verdicts == nullptr) return false;

  out_run.clear();
  out_verdicts.resize(0);
  out_run.reserve(run.size());
  out_verdicts.verdicts.reserve(run.size());
  out_verdicts.flags.reserve(run.size());
  out_verdicts.shard.reserve(run.size());
  out_verdicts.slot.reserve(run.size());
  out_verdicts.flow_hash.reserve(run.size());

  for (std::size_t i = 0; i < run.size(); ++i) {
    const capture::Verdict v = verdicts->verdicts[i];
    const std::uint8_t flags = verdicts->flags[i];
    bool keep = true;
    if (v == capture::Verdict::Reject) {
      // L1: the sketch tier already absorbed it during classify().
      keep = false;
      ++stats_.l1_packets;
    } else if (v == capture::Verdict::Admit &&
               (flags & capture::kFlagStunPort) == 0) {
      if ((flags & capture::kFlagZoomShaped) == 0) {
        // L2: whole-flow keep decision off the canonical flow hash.
        if (level >= 2 && !keep_at_l2(verdicts->flow_hash[i])) {
          keep = false;
          ++stats_.l2_packets;
        }
      } else if (level >= 3) {
        // L3: per-flow 1-in-N packet sampling, keyed by flow slot so
        // the decision sequence is shard-count-independent.
        const std::uint32_t slot = verdicts->slot[i];
        if (slot >= flow_counters_.size()) flow_counters_.resize(slot + 1, 0);
        if (flow_counters_[slot]++ % config_.l3_keep_one_in != 0) {
          keep = false;
          ++stats_.l3_packets;
        }
      }
    }
    if (!keep) {
      stats_.shed_bytes += run[i].data.size();
      continue;
    }
    out_run.push_back(run[i]);
    out_verdicts.verdicts.push_back(v);
    out_verdicts.flags.push_back(flags);
    out_verdicts.shard.push_back(verdicts->shard[i]);
    out_verdicts.slot.push_back(verdicts->slot[i]);
    out_verdicts.flow_hash.push_back(verdicts->flow_hash[i]);
  }
  return true;
}

}  // namespace zpm::overload
