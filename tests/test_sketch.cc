// zpm::sketch unit coverage: count-min error bounds (including
// adversarial keys engineered to collide), SpaceSaving heavy-hitter
// semantics, the promote/demote round trip and its eviction accounting,
// and the cross-shard merge. The integration-level bit-identity and
// screening-parity contracts live in test_batch_filter.cc; the
// million-flow recall/footprint assertions in bench/bench_sketch.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/five_tuple.h"
#include "sketch/sketch.h"
#include "util/rng.h"

namespace zpm::sketch {
namespace {

net::PackedFlowKey key_of(std::uint32_t n) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr(10, 8, static_cast<std::uint8_t>(n >> 8),
                           static_cast<std::uint8_t>(n));
  t.dst_ip = net::Ipv4Addr(23, 1, 2, 3);
  t.src_port = static_cast<std::uint16_t>(10000 + (n >> 16));
  t.dst_port = static_cast<std::uint16_t>(40000 + (n & 0x3fff));
  t.protocol = 17;
  return net::PackedFlowKey(t.canonical());
}

// ---------------------------------------------------------------------------
// CountMinSketch

TEST(CountMinSketch, NeverUndercountsAndIsExactWithoutCollisions) {
  CountMinSketch cm(64 << 10);
  util::Rng rng(3);
  std::map<std::uint64_t, FlowStats> truth;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t hash = net::canonical_flow_hash(key_of(rng.next_u32()));
    const auto bytes = static_cast<std::uint32_t>(rng.uniform_int(64, 1500));
    cm.add(hash, 1, bytes);
    truth[hash].packets += 1;
    truth[hash].bytes += bytes;
  }
  // 200 keys over a 64 KiB sketch: far under capacity, every estimate is
  // an upper bound and almost surely exact.
  for (const auto& [hash, want] : truth) {
    const FlowStats got = cm.estimate(hash);
    EXPECT_GE(got.packets, want.packets);
    EXPECT_GE(got.bytes, want.bytes);
  }
}

TEST(CountMinSketch, AdversarialRowCollisionsStayUpperBounds) {
  // Kirsch–Mitzenmacher derives row indices from (low32, high32|1) of
  // one hash. Adversarial keys: identical low 32 bits, so row 0 is a
  // single shared cell for every key — the worst collision pattern the
  // scheme admits — while the other rows diverge via high bits.
  CountMinSketch cm(16 << 10);
  constexpr int kKeys = 64;
  constexpr std::uint64_t kLow = 0x1234abcdu;
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < kKeys; ++i)
    hashes.push_back((static_cast<std::uint64_t>(i * 2 + 1) << 32) | kLow);

  std::vector<std::uint64_t> want_packets(kKeys, 0);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      // Skewed: key i gets i+1 packets per round.
      for (int rep = 0; rep <= i; ++rep) {
        cm.add(hashes[i], 1, 100);
        ++want_packets[i];
      }
    }
  }
  for (int i = 0; i < kKeys; ++i) {
    const FlowStats est = cm.estimate(hashes[i]);
    EXPECT_GE(est.packets, want_packets[i]) << "key " << i;
    EXPECT_GE(est.bytes, want_packets[i] * 100) << "key " << i;
    // Conservative update with 3 non-degenerate rows: the overestimate
    // must stay within the additive bound sum(all)/width per row; with
    // only 64 hot keys this is far below total traffic. Sanity-bound it
    // at 2x truth for the heavy half of the keys.
    if (i >= kKeys / 2)
      EXPECT_LE(est.packets, want_packets[i] * 2) << "key " << i;
  }
}

TEST(CountMinSketch, RowsAreCacheLineAligned) {
  for (std::size_t budget : {std::size_t{4096}, std::size_t{64 << 10}}) {
    CountMinSketch cm(budget);
    EXPECT_EQ(cm.width() & (cm.width() - 1), 0u) << "width not a power of two";
    EXPECT_GE(cm.width(), 64u);
    EXPECT_LE(cm.memory_bytes(),
              budget + CountMinSketch::kRows * 64 + 2 * 64);
  }
}

// ---------------------------------------------------------------------------
// HeavyTable

TEST(HeavyTable, TracksTopFlowsWithSpaceSavingBound) {
  constexpr std::size_t kCapacity = 32;
  HeavyTable table(kCapacity);
  util::Rng rng(11);
  std::map<std::uint32_t, std::uint64_t> truth;
  std::uint64_t total_bytes = 0;
  // Heavy-tailed: flow 0 alone draws ~17% of offers (u^3 skew), far
  // above the total/capacity eviction ceiling asserted below.
  for (int round = 0; round < 4000; ++round) {
    const double u = rng.uniform();
    const auto n = static_cast<std::uint32_t>(u * u * u * 200);
    const net::PackedFlowKey key = key_of(n);
    table.offer(key, net::canonical_flow_hash(key), 1, 1000);
    truth[n] += 1000;
    total_bytes += 1000;
  }
  EXPECT_EQ(table.size(), kCapacity);

  // SpaceSaving invariants: counted bytes never undercount the true
  // bytes of the tracked key, and error_bytes bounds the inflation.
  for (const HeavyTable::Entry& e : table.top()) {
    std::uint32_t n = 0xffffffff;
    for (const auto& [cand, bytes] : truth)
      if (key_of(cand) == e.key) n = cand;
    ASSERT_NE(n, 0xffffffffu);
    EXPECT_GE(e.bytes, truth[n]);
    EXPECT_LE(e.bytes - e.error_bytes, truth[n]);
    // Classic guarantee: min-counter (and so any error) <= total / capacity.
    EXPECT_LE(e.error_bytes, total_bytes / kCapacity);
  }

  // The classic SpaceSaving guarantee: every flow whose true volume
  // exceeds total/capacity — the ceiling on any counter that could be
  // evicted — must be tracked. (Flows below that bar may or may not
  // survive; no assertion either way.)
  std::size_t guaranteed = 0;
  for (const auto& [n, bytes] : truth) {
    if (bytes <= total_bytes / kCapacity) continue;
    ++guaranteed;
    const net::PackedFlowKey key = key_of(n);
    EXPECT_TRUE(table.find(key, net::canonical_flow_hash(key)).has_value())
        << "flow " << n << " (" << bytes << " B > total/capacity) missing";
  }
  EXPECT_GE(guaranteed, 1u);  // the skew must actually exercise the bound
}

TEST(HeavyTable, EraseFreesCapacityAndKeepsProbeChainsIntact) {
  HeavyTable table(8);
  std::vector<net::PackedFlowKey> keys;
  for (std::uint32_t n = 0; n < 8; ++n) {
    keys.push_back(key_of(n));
    table.offer(keys.back(), net::canonical_flow_hash(keys.back()), 1, 100 + n);
  }
  ASSERT_EQ(table.size(), 8u);
  // Erase half (every other key), then verify the remainder is still
  // findable — backward-shift deletion must not break probe chains.
  for (std::uint32_t n = 0; n < 8; n += 2)
    EXPECT_TRUE(table.erase(keys[n], net::canonical_flow_hash(keys[n])));
  EXPECT_EQ(table.size(), 4u);
  for (std::uint32_t n = 0; n < 8; ++n) {
    const auto e = table.find(keys[n], net::canonical_flow_hash(keys[n]));
    if (n % 2 == 0)
      EXPECT_FALSE(e.has_value()) << "erased key " << n << " still present";
    else
      ASSERT_TRUE(e.has_value()) << "survivor key " << n << " lost";
  }
  // Freed entries are reusable without eviction.
  for (std::uint32_t n = 100; n < 104; ++n) {
    const net::PackedFlowKey key = key_of(n);
    EXPECT_FALSE(table.offer(key, net::canonical_flow_hash(key), 1, 1));
  }
  EXPECT_EQ(table.size(), 8u);
}

/// The binary-heap SpaceSaving table HeavyTable replaced (entries carry
/// their own byte count and heap position; textbook sift-down), kept as
/// the reference its evictions, contents and footprint must match.
class ReferenceHeavyTable {
 public:
  struct Entry {
    net::PackedFlowKey key;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::uint64_t error_bytes = 0;
    std::uint32_t heap_pos = 0;
    std::uint32_t next_free = 0;
  };

  explicit ReferenceHeavyTable(std::size_t capacity) {
    entries_.resize(capacity);
    heap_.reserve(capacity);
    std::size_t index_size = 8;
    while (index_size < capacity * 2) index_size *= 2;
    index_.assign(index_size, 0);
    mask_ = index_size - 1;
    for (std::size_t i = 0; i < capacity; ++i)
      entries_[i].next_free = static_cast<std::uint32_t>(i + 2 <= capacity ? i + 2 : 0);
    free_head_ = 1;
  }

  bool offer(const net::PackedFlowKey& key, std::uint64_t hash,
             std::uint64_t packet_inc, std::uint64_t byte_inc) {
    std::uint32_t* slot = index_slot(key, hash);
    if (*slot != 0) {
      Entry& e = entries_[*slot - 1];
      e.bytes += byte_inc;
      e.packets += packet_inc;
      sift_down(e.heap_pos);
      return false;
    }
    if (free_head_ != 0) {
      const std::uint32_t idx = free_head_ - 1;
      Entry& e = entries_[idx];
      free_head_ = e.next_free;
      e.key = key;
      e.bytes = byte_inc;
      e.packets = packet_inc;
      e.error_bytes = 0;
      *slot = idx + 1;
      heap_.push_back(idx);
      sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
      return false;
    }
    const std::uint32_t idx = heap_[0];
    Entry& e = entries_[idx];
    index_erase(e.key, net::canonical_flow_hash(e.key));
    *index_slot(key, hash) = idx + 1;
    e.key = key;
    e.error_bytes = e.bytes;
    e.bytes += byte_inc;
    e.packets += packet_inc;
    sift_down(0);
    return true;
  }

  bool erase(const net::PackedFlowKey& key, std::uint64_t hash) {
    const std::uint32_t slot = *index_slot(key, hash);
    if (slot == 0) return false;
    const std::uint32_t idx = slot - 1;
    index_erase(key, hash);
    const std::uint32_t pos = entries_[idx].heap_pos;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      heap_[pos] = last;
      entries_[last].heap_pos = pos;
      sift_down(pos);
      sift_up(entries_[last].heap_pos);
    }
    entries_[idx].next_free = free_head_;
    free_head_ = idx + 1;
    return true;
  }

  /// The same byte stream HeavyTable::serialize writes.
  std::vector<std::uint8_t> image() const {
    std::vector<Entry> out;
    for (std::uint32_t idx : heap_) out.push_back(entries_[idx]);
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.bytes != b.bytes) return a.bytes > b.bytes;
      if (a.key.k1 != b.key.k1) return a.key.k1 < b.key.k1;
      return a.key.k2 < b.key.k2;
    });
    util::ByteWriter w;
    w.u64be(entries_.size());
    w.u64be(heap_.size());
    for (const Entry& e : out) {
      w.u64be(e.key.k1);
      w.u64be(e.key.k2);
      w.u64be(e.bytes);
      w.u64be(e.packets);
      w.u64be(e.error_bytes);
    }
    return w.take();
  }

  std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::uint32_t* index_slot(const net::PackedFlowKey& key, std::uint64_t hash) {
    std::size_t idx = hash & mask_;
    while (index_[idx] != 0 && !(entries_[index_[idx] - 1].key == key))
      idx = (idx + 1) & mask_;
    return &index_[idx];
  }
  void index_erase(const net::PackedFlowKey& key, std::uint64_t hash) {
    std::size_t hole = static_cast<std::size_t>(index_slot(key, hash) - index_.data());
    for (std::size_t next = (hole + 1) & mask_;; next = (next + 1) & mask_) {
      const std::uint32_t slot = index_[next];
      if (slot == 0) break;
      const std::size_t home = net::canonical_flow_hash(entries_[slot - 1].key) & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        index_[hole] = slot;
        hole = next;
      }
    }
    index_[hole] = 0;
  }
  void sift_up(std::uint32_t pos) {
    const std::uint32_t entry = heap_[pos];
    const std::uint64_t bytes = entries_[entry].bytes;
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (entries_[heap_[parent]].bytes <= bytes) break;
      heap_[pos] = heap_[parent];
      entries_[heap_[pos]].heap_pos = pos;
      pos = parent;
    }
    heap_[pos] = entry;
    entries_[entry].heap_pos = pos;
  }
  void sift_down(std::uint32_t pos) {
    const std::uint32_t entry = heap_[pos];
    const std::uint64_t bytes = entries_[entry].bytes;
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = pos * 2 + 1;
      if (child >= n) break;
      if (child + 1 < n && entries_[heap_[child + 1]].bytes < entries_[heap_[child]].bytes)
        ++child;
      if (entries_[heap_[child]].bytes >= bytes) break;
      heap_[pos] = heap_[child];
      entries_[heap_[pos]].heap_pos = pos;
      pos = child;
    }
    heap_[pos] = entry;
    entries_[entry].heap_pos = pos;
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> heap_;
  std::uint64_t mask_ = 0;
  std::uint32_t free_head_ = 0;
};

std::vector<std::uint8_t> image_of(const HeavyTable& table) {
  util::ByteWriter w;
  table.serialize(w);
  return w.take();
}

TEST(HeavyTable, MatchesReferenceBinaryHeapOnTieHeavyStreams) {
  // Equal byte increments and a small key pool make nearly every sift a
  // tie: which minimum gets evicted then depends on the exact heap
  // layout, so any layout drift shows up in evictions or contents.
  for (const std::size_t capacity : {std::size_t{4}, std::size_t{16}, std::size_t{61}}) {
    for (const std::uint32_t pool : {2u, 3u, 8u}) {
      for (const std::uint64_t max_inc : {1u, 2u, 100u}) {
        SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                     " pool=" + std::to_string(pool) + " inc=" + std::to_string(max_inc));
        HeavyTable table(capacity);
        ReferenceHeavyTable ref(capacity);
        ASSERT_EQ(table.memory_bytes(), ref.memory_bytes());
        util::Rng rng(capacity * 131 + pool * 7 + max_inc);
        const auto keys = static_cast<std::uint32_t>(capacity * pool);
        std::uint64_t evictions = 0;
        for (int step = 0; step < 6000; ++step) {
          const net::PackedFlowKey key =
              key_of(static_cast<std::uint32_t>(rng.uniform_int(0, keys - 1)));
          const std::uint64_t hash = net::canonical_flow_hash(key);
          if (rng.chance(0.05)) {
            ASSERT_EQ(table.erase(key, hash), ref.erase(key, hash)) << "step " << step;
          } else {
            const std::uint64_t inc =
                max_inc == 2 ? static_cast<std::uint64_t>(rng.uniform_int(1, 2)) : max_inc;
            const bool evicted = table.offer(key, hash, 1, inc);
            ASSERT_EQ(evicted, ref.offer(key, hash, 1, inc)) << "step " << step;
            evictions += evicted ? 1 : 0;
          }
          if (step % 97 == 0) {
            ASSERT_EQ(image_of(table), ref.image()) << "step " << step;
          }
        }
        EXPECT_EQ(image_of(table), ref.image());
        EXPECT_GT(evictions, 0u);
      }
    }
  }
}

TEST(HeavyTable, FootprintMatchesReferenceLayout) {
  // FlowTier splits its budget by HeavyTable::memory_bytes(): the same
  // footprint per capacity keeps every budget's geometry.
  for (const std::size_t capacity :
       {std::size_t{4}, std::size_t{16}, std::size_t{1117}, std::size_t{4369}})
    EXPECT_EQ(HeavyTable(capacity).memory_bytes(),
              ReferenceHeavyTable(capacity).memory_bytes());
}

// ---------------------------------------------------------------------------
// FlowTier: promotion / demotion round trip + accounting

TEST(FlowTier, PromoteDemoteRoundTripCarriesAggregates) {
  FlowTier tier(256 << 10);
  const net::PackedFlowKey key = key_of(7);
  const std::uint64_t hash = net::canonical_flow_hash(key);
  for (int i = 0; i < 10; ++i) tier.absorb(key, hash, 500);
  ASSERT_GE(tier.tracked_flows(), 1u);

  // Promotion hands out the exact heavy-table aggregate and drops the
  // flow from the table.
  const FlowStats carried = tier.promote(key, hash);
  EXPECT_EQ(carried, (FlowStats{10, 5000}));
  EXPECT_EQ(tier.stats().promotions, 1u);

  // Demotion folds the (grown) aggregate back; the tier's estimate must
  // cover it and the totals must count it.
  const FlowStats grown{25, 12000};
  tier.demote(key, hash, grown);
  EXPECT_EQ(tier.stats().demotions, 1u);
  const FlowStats est = tier.estimate(key, hash);
  EXPECT_GE(est.packets, grown.packets);
  EXPECT_GE(est.bytes, grown.bytes);
  EXPECT_EQ(tier.stats().absorbed_packets, 10u + 25u);
  EXPECT_EQ(tier.stats().absorbed_bytes, 5000u + 12000u);

  // A second promotion returns at least the demoted aggregate.
  const FlowStats again = tier.promote(key, hash);
  EXPECT_GE(again.packets, grown.packets);
  EXPECT_GE(again.bytes, grown.bytes);
}

TEST(FlowTier, PromotingUnknownFlowReturnsZerosAndIsNotCounted) {
  FlowTier tier(64 << 10);
  const net::PackedFlowKey key = key_of(99);
  const FlowStats carried = tier.promote(key, net::canonical_flow_hash(key));
  EXPECT_EQ(carried, FlowStats{});
  EXPECT_EQ(tier.stats().promotions, 0u);
}

TEST(FlowTier, EvictionsAreCountedUnderPressure) {
  // Minimal budget -> 16-entry heavy table; far more distinct flows than
  // that must produce SpaceSaving evictions, all accounted.
  FlowTier tier(1);
  for (std::uint32_t n = 0; n < 500; ++n) {
    const net::PackedFlowKey key = key_of(n);
    tier.absorb(key, net::canonical_flow_hash(key), 100);
  }
  EXPECT_EQ(tier.stats().absorbed_packets, 500u);
  EXPECT_GT(tier.stats().evictions, 0u);
  EXPECT_LE(tier.tracked_flows(), 16u);
  // Eviction inheritance marks uncertainty.
  bool saw_error = false;
  for (const HeavyHitter& hh : tier.heavy_hitters(16))
    saw_error = saw_error || hh.error_bytes > 0;
  EXPECT_TRUE(saw_error);
}

TEST(FlowTier, FootprintStaysWithinBudget) {
  for (std::size_t budget : {std::size_t{256} << 10, std::size_t{1} << 20,
                             std::size_t{4} << 20}) {
    FlowTier tier(budget);
    EXPECT_LE(tier.memory_bytes(), budget + budget / 4)
        << "budget " << budget;
    EXPECT_GE(tier.memory_bytes(), budget / 8) << "budget " << budget;
    EXPECT_EQ(tier.budget_bytes(), budget);
  }
}

// ---------------------------------------------------------------------------
// merge_tiers

TEST(MergeTiers, ConcatenatesDisjointShardsRankedByBytes) {
  FlowTier a(64 << 10), b(64 << 10);
  // Shard-disjoint flows (as canonical-hash routing guarantees).
  for (std::uint32_t n = 0; n < 10; ++n) {
    const net::PackedFlowKey key = key_of(n);
    FlowTier& tier = n % 2 == 0 ? a : b;
    for (std::uint32_t rep = 0; rep <= n; ++rep)
      tier.absorb(key, net::canonical_flow_hash(key), 1000);
  }
  const TierReport report = merge_tiers({&a, &b}, 5);
  ASSERT_EQ(report.heavy_hitters.size(), 5u);
  for (std::size_t i = 1; i < report.heavy_hitters.size(); ++i)
    EXPECT_LE(report.heavy_hitters[i].bytes, report.heavy_hitters[i - 1].bytes);
  // Top flow is rank 9 (10 reps x 1000 bytes), which lives in tier b.
  EXPECT_EQ(net::PackedFlowKey(report.heavy_hitters[0].flow),
            net::PackedFlowKey(key_of(9).unpack()));
  EXPECT_EQ(report.heavy_hitters[0].bytes, 10'000u);
  EXPECT_EQ(report.stats.absorbed_packets,
            a.stats().absorbed_packets + b.stats().absorbed_packets);
}

}  // namespace
}  // namespace zpm::sketch
