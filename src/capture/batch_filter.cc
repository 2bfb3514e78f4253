#include "capture/batch_filter.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "proto/stun.h"
#include "util/spsc_ring.h"
#include "zoom/classify.h"
#include "zoom/constants.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace zpm::capture {

namespace {

// Internal probe flags (BatchFilter::Probe::flags). kProbeClean marks a
// packet net::decode_packet is guaranteed to accept via the fixed-offset
// fast layout (20-byte IPv4 header, complete L4 header), which is the
// precondition for every Reject.
constexpr std::uint32_t kProbeClean = 1u << 0;
constexpr std::uint32_t kUdp = 1u << 1;
constexpr std::uint32_t kTcp = 1u << 2;
constexpr std::uint32_t kStunPortTouch = 1u << 3;  // UDP port 3478 either side
constexpr std::uint32_t kZoomShape = 1u << 4;      // payload shape verified
constexpr std::uint32_t kArmCandidates = 1u << 5;  // register both endpoints

inline std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}

inline std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

/// (ip << 16) | port — the same endpoint key core::P2pDetector uses.
inline std::uint64_t endpoint_key(std::uint32_t ip, std::uint16_t port) {
  return (std::uint64_t{ip} << 16) | port;
}

inline std::uint64_t endpoint_hash(std::uint64_t key) {
  std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowDispatchTable

FlowDispatchTable::FlowDispatchTable(std::size_t initial_capacity) {
  std::size_t cap = 16;
  while (cap < initial_capacity) cap <<= 1;
  entries_.resize(cap);
  mask_ = cap - 1;
}

FlowDispatchTable::Hit FlowDispatchTable::lookup_or_insert(
    const net::FiveTuple& canonical, std::size_t shards) {
  // Protocol in the low byte keeps k2 non-zero for every real flow
  // (probe-clean packets are UDP or TCP), so k2 == 0 marks empty slots.
  const net::PackedFlowKey key(canonical);
  return lookup_or_insert(key, net::canonical_flow_hash(key), shards);
}

FlowDispatchTable::Hit FlowDispatchTable::lookup_or_insert(
    const net::PackedFlowKey& key, std::uint64_t hash, std::size_t shards) {
  std::size_t idx = hash & mask_;
  for (;;) {
    Entry& e = entries_[idx];
    if (e.k2 == 0) {
      if ((size_ + 1) * 4 > entries_.size() * 3) {
        grow();
        return lookup_or_insert(key, hash, shards);
      }
      e.k1 = key.k1;
      e.k2 = key.k2;
      // The owner shard the parallel dispatcher would have computed —
      // one canonical hash feeds table placement AND shard routing;
      // bit-compatible routing is the contract.
      e.shard = static_cast<std::uint32_t>(hash % (shards > 0 ? shards : 1));
      e.slot = static_cast<std::uint32_t>(next_slot_++);
      ++size_;
      return Hit{e.shard, e.slot, true};
    }
    if (e.k1 == key.k1 && e.k2 == key.k2) return Hit{e.shard, e.slot, false};
    idx = (idx + 1) & mask_;
  }
}

bool FlowDispatchTable::erase(const net::FiveTuple& canonical) {
  const net::PackedFlowKey key(canonical);
  std::size_t idx = net::canonical_flow_hash(key) & mask_;
  for (;;) {
    Entry& e = entries_[idx];
    if (e.k2 == 0) return false;
    if (e.k1 == key.k1 && e.k2 == key.k2) break;
    idx = (idx + 1) & mask_;
  }
  // Backward-shift deletion keeps probe chains intact without
  // tombstones: pull each displaced successor into the vacated slot.
  std::size_t hole = idx;
  for (std::size_t next = (hole + 1) & mask_;; next = (next + 1) & mask_) {
    Entry& e = entries_[next];
    if (e.k2 == 0) break;
    const std::size_t home = net::canonical_flow_hash(e.k1, e.k2) & mask_;
    // Move only if the entry's home slot does not lie in (hole, next] —
    // i.e. leaving it would break its probe chain once the hole empties.
    const bool reachable = ((next - home) & mask_) >= ((next - hole) & mask_);
    if (reachable) {
      entries_[hole] = e;
      hole = next;
    }
  }
  entries_[hole] = Entry{};
  --size_;
  return true;
}

void FlowDispatchTable::grow() {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(old.size() * 2, Entry{});
  mask_ = entries_.size() - 1;
  for (const Entry& e : old) {
    if (e.k2 == 0) continue;
    std::size_t idx = net::canonical_flow_hash(e.k1, e.k2) & mask_;
    while (entries_[idx].k2 != 0) idx = (idx + 1) & mask_;
    entries_[idx] = e;
  }
}

// ---------------------------------------------------------------------------
// Sketch worker

namespace {

/// One tier operation, queued by the producer in packet order.
struct SketchOp {
  enum class Kind : std::uint8_t { Absorb, Promote, Demote };
  net::PackedFlowKey key;
  std::uint64_t hash = 0;
  sketch::FlowStats carried;  ///< Demote: the exact tier's aggregate
  std::uint32_t arg = 0;      ///< Absorb: wire bytes; Promote: owner shard
  Kind kind = Kind::Absorb;
};

/// Ops in flight between producer and worker: 1.5 MiB of ring, 32
/// classify() batches of 1024 all-rejected packets.
constexpr std::size_t kRingOps = std::size_t{1} << 15;
/// Ops the worker takes off the ring per round.
constexpr std::size_t kPopOps = 1024;

}  // namespace

/// The per-shard tiers plus the thread that owns them. The producer
/// (classify / demote_flow) only touches `pending_`, the ring's producer
/// side and `published_`; the worker only the ring's consumer side, the
/// tiers and `promotions_`. Tier state is read on the producer side
/// after drain(), whose acquire pairs with the worker's release.
class BatchFilter::SketchWorker {
 public:
  SketchWorker(std::size_t shards, std::size_t budget) {
    tiers_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) tiers_.emplace_back(budget / shards);
  }

  SketchWorker(const SketchWorker&) = delete;
  SketchWorker& operator=(const SketchWorker&) = delete;

  ~SketchWorker() {
    if (!thread_.joinable()) return;
    ring_->close();  // the worker applies what is queued, then exits
    thread_.join();
  }

  void queue(const SketchOp& op) {
    // Until something has been absorbed or demoted every tier is empty,
    // and promoting from an empty tier changes nothing and carries
    // nothing: such ops are skipped, so a filter that never rejects
    // never starts the worker.
    if (op.kind == SketchOp::Kind::Promote && !fed_) return;
    fed_ = true;
    pending_.push_back(op);
  }

  /// Hands the queued ops to the worker with one ring push, starting
  /// the worker on the first op. Blocks while the ring is full.
  void publish() {
    if (pending_.empty()) return;
    if (!thread_.joinable()) {
      ring_.emplace(kRingOps);
      thread_ = std::thread([this] { run(); });
    }
    ring_->push_batch(pending_);
    published_ += pending_.size();
    pending_.clear();
  }

  /// Waits until the worker has applied every published op.
  void drain() const {
    util::Backoff backoff;
    while (applied_.load(std::memory_order_acquire) != published_) backoff.wait();
  }

  [[nodiscard]] const std::vector<sketch::FlowTier>& tiers() const {
    drain();
    return tiers_;
  }
  [[nodiscard]] const std::vector<Promotion>& promotions() const {
    drain();
    return promotions_;
  }

 private:
  void run() {
    std::vector<SketchOp> ops;
    ops.reserve(kPopOps);
    while (ring_->pop_batch(ops, kPopOps) > 0) {
      for (const SketchOp& op : ops) apply(op);
      applied_.fetch_add(ops.size(), std::memory_order_release);
      ops.clear();
    }
  }

  void apply(const SketchOp& op) {
    sketch::FlowTier& tier = tiers_[op.hash % tiers_.size()];
    switch (op.kind) {
      case SketchOp::Kind::Absorb:
        tier.absorb(op.key, op.hash, op.arg);
        break;
      case SketchOp::Kind::Promote: {
        const sketch::FlowStats carried = tier.promote(op.key, op.hash);
        if (carried.packets > 0)
          promotions_.push_back(Promotion{op.key.unpack(), op.arg, carried});
        break;
      }
      case SketchOp::Kind::Demote:
        tier.demote(op.key, op.hash, op.carried);
        break;
    }
  }

  std::vector<sketch::FlowTier> tiers_;  // one per shard
  std::vector<Promotion> promotions_;
  std::vector<SketchOp> pending_;        // producer: this batch's ops
  std::uint64_t published_ = 0;          // producer: ops pushed so far
  bool fed_ = false;                     // producer: an absorb/demote was queued
  std::atomic<std::uint64_t> applied_{0};
  std::optional<util::SpscRing<SketchOp>> ring_;  // created with the thread
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// BatchFilter

BatchFilter::BatchFilter(BatchFilter&&) noexcept = default;
BatchFilter& BatchFilter::operator=(BatchFilter&&) noexcept = default;
BatchFilter::~BatchFilter() = default;

BatchFilter::BatchFilter(BatchFilterConfig config, Mode mode)
    : config_(std::move(config)) {
  switch (mode) {
    case Mode::ForceScalar: simd_ = false; break;
    case Mode::ForceSimd: simd_ = true; break;
    case Mode::Auto: simd_ = std::getenv("ZPM_NO_SIMD") == nullptr; break;
  }
  candidates_.assign(1 << 10, 0);
  candidates_mask_ = candidates_.size() - 1;
  if (config_.flow_memory_budget > 0) {
    sketch_ = std::make_unique<SketchWorker>(
        config_.shards > 0 ? config_.shards : 1, config_.flow_memory_budget);
  }
  if (config_.dataplane_offload) {
    // One offload per shard, partitioned like the sketch tier: every
    // update happens on the producer thread inside classify(), so the
    // register partitioning (and its collision pattern) follows the
    // shard map.
    const std::size_t shards = config_.shards > 0 ? config_.shards : 1;
    offloads_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) offloads_.emplace_back(config_.offload);
  }
}

OffloadReport BatchFilter::offload_report() const {
  OffloadReport merged;
  for (const auto& offload : offloads_) merged.merge(offload.report());
  return merged;
}

bool BatchFilter::demote_flow(const net::FiveTuple& canonical,
                              const sketch::FlowStats& carried) {
  if (!sketch_) return false;
  if (!flows_.erase(canonical)) return false;
  const net::PackedFlowKey key(canonical);
  sketch_->queue(SketchOp{key, net::canonical_flow_hash(key), carried, 0,
                          SketchOp::Kind::Demote});
  sketch_->publish();
  return true;
}

std::uint64_t BatchFilter::sketch_evicted() const {
  if (!sketch_) return 0;
  std::uint64_t total = 0;
  for (const auto& tier : sketch_->tiers())
    total += tier.stats().evictions + tier.stats().demotions;
  return total;
}

sketch::TierReport BatchFilter::sketch_report(std::size_t limit) const {
  std::vector<const sketch::FlowTier*> tiers;
  if (sketch_) {
    for (const auto& tier : sketch_->tiers()) tiers.push_back(&tier);
  }
  return sketch::merge_tiers(tiers, limit);
}

const sketch::FlowTier& BatchFilter::tier(std::size_t shard) const {
  return sketch_->tiers()[shard];
}

const std::vector<Promotion>& BatchFilter::promotions() const {
  static const std::vector<Promotion> kNone;
  return sketch_ ? sketch_->promotions() : kNone;
}

bool BatchFilter::candidate_contains(std::uint64_t key) const {
  if (key == 0) return candidates_has_zero_;
  std::size_t idx = endpoint_hash(key) & candidates_mask_;
  while (candidates_[idx] != 0) {
    if (candidates_[idx] == key) return true;
    idx = (idx + 1) & candidates_mask_;
  }
  return false;
}

void BatchFilter::candidate_insert(std::uint64_t key) {
  if (key == 0) {
    candidates_has_zero_ = true;
    return;
  }
  std::size_t idx = endpoint_hash(key) & candidates_mask_;
  while (candidates_[idx] != 0) {
    if (candidates_[idx] == key) return;
    idx = (idx + 1) & candidates_mask_;
  }
  if ((candidates_size_ + 1) * 4 > candidates_.size() * 3) {
    candidate_grow();
    candidate_insert(key);
    return;
  }
  candidates_[idx] = key;
  ++candidates_size_;
}

void BatchFilter::candidate_grow() {
  std::vector<std::uint64_t> old = std::move(candidates_);
  candidates_.assign(old.size() * 2, 0);
  candidates_mask_ = candidates_.size() - 1;
  for (std::uint64_t key : old) {
    if (key == 0) continue;
    std::size_t idx = endpoint_hash(key) & candidates_mask_;
    while (candidates_[idx] != 0) idx = (idx + 1) & candidates_mask_;
    candidates_[idx] = key;
  }
}

namespace {

/// Zoom payload shape probe for a probe-clean UDP packet: fixed-offset
/// discriminants only, no parsing. Purely informational — it refines an
/// Admit (kZoomShape) but never turns one into a Reject — so look-alike
/// traffic can lose the flag without risking the bit-identity contract.
std::uint32_t shape_flags(std::span<const std::uint8_t> d, std::uint16_t src_port,
                          std::uint16_t dst_port, bool stun_touch) {
  // Probe-clean guarantees d.size() >= 42 and udp_len >= 8.
  const std::size_t udp_payload = std::size_t{be16(d.data() + 38)} - 8;
  const std::size_t plen = std::min(d.size() - 42, udp_payload);
  const std::uint8_t* pl = d.data() + 42;
  if (src_port == zoom::kServerMediaPort || dst_port == zoom::kServerMediaPort) {
    // 8-byte SFU encap of type 5, then a documented media encap type;
    // for RTP-carrying types the payload-type byte must be in Table 3.
    if (plen < 9 || pl[0] != zoom::kSfuTypeMedia) return 0;
    const std::uint8_t media_type = pl[8];
    if (zoom::is_rtcp_encap_type(media_type)) return kZoomShape;
    if (!zoom::media_kind_of(media_type)) return 0;
    const std::size_t rtp_off = 8 + zoom::media_payload_offset(media_type);
    if (plen < rtp_off + 2) return 0;
    const std::uint8_t payload_type = pl[rtp_off + 1] & 0x7f;
    return zoom::is_known_rtp_payload_type(payload_type) ? kZoomShape : 0;
  }
  if (stun_touch) {
    // RFC 5389 fixed prefix: zero top bits + magic cookie.
    if (plen < 8 || (pl[0] & 0xc0) != 0) return 0;
    if (be32(pl + 4) == proto::kStunMagicCookie) return kZoomShape;
  }
  return 0;
}

}  // namespace

/// Scalar reference probe: the byte-by-byte specification of the
/// per-packet facts. The SWAR/SSE2 probe must produce verdict-relevant
/// fields bit-identically (fuzz_batch_filter diffs them on arbitrary
/// bytes); any lane the vector path cannot handle falls back to this.
BatchFilter::Probe BatchFilter::probe_one_scalar(std::span<const std::uint8_t> d) {
  BatchFilter::Probe p;
  const std::size_t n = d.size();
  // Ethernet + the IPv4 header fields through the protocol byte.
  if (n < 24) return p;
  if (d[12] != 0x08 || d[13] != 0x00) return p;  // ethertype != IPv4
  const std::uint8_t vihl = d[14];
  if ((vihl >> 4) != 4) return p;
  const std::uint8_t ihl = vihl & 0x0f;
  if (ihl < 5) return p;
  p.proto = d[23];
  const bool not_fragment = (be16(d.data() + 20) & 0x1fff) == 0;

  // Candidate arming is deliberately more liberal than the clean probe:
  // the analyzer registers P2P candidates from any *decodable* STUN
  // exchange, including IPv4-with-options packets the clean probe
  // refuses. Missing one of those would let the filter reject a P2P
  // flow the analyzer would have counted; over-arming merely admits a
  // few extra packets into the full parse.
  const std::size_t l4 = 14 + std::size_t{ihl} * 4;
  if (p.proto == 17 && not_fragment && n >= l4 + 4) {
    const std::uint16_t sp = be16(d.data() + l4);
    const std::uint16_t dp = be16(d.data() + l4 + 2);
    if (sp == zoom::kStunServerPort || dp == zoom::kStunServerPort) {
      p.flags |= kArmCandidates;
      p.src_ip = be32(d.data() + 26);
      p.dst_ip = be32(d.data() + 30);
      p.src_port = sp;
      p.dst_port = dp;
    }
  }

  // Clean layout: exactly-20-byte IPv4 header, first fragment only,
  // plausible total length, complete UDP/TCP header — the conditions
  // under which net::decode_packet cannot fail.
  if (ihl != 5 || !not_fragment) return p;
  if (be16(d.data() + 16) < 20) return p;  // total_length < header_length
  // Address/port reads stay behind the per-protocol length checks: a
  // frame cut anywhere inside the IPv4 header (n in [24, 33]) must not
  // be dereferenced past its end (fuzz_batch_filter regression).
  if (p.proto == 17) {
    if (n < 42) return p;
    p.src_ip = be32(d.data() + 26);
    p.dst_ip = be32(d.data() + 30);
    p.src_port = be16(d.data() + 34);
    p.dst_port = be16(d.data() + 36);
    if (be16(d.data() + 38) < 8) return p;  // UDP length field
    p.flags |= kProbeClean | kUdp;
    const bool stun_touch = p.src_port == zoom::kStunServerPort ||
                            p.dst_port == zoom::kStunServerPort;
    if (stun_touch) p.flags |= kStunPortTouch;
    p.flags |= shape_flags(d, p.src_port, p.dst_port, stun_touch);
  } else if (p.proto == 6) {
    if (n < 54) return p;
    const std::size_t data_offset = d[46] >> 4;
    if (data_offset < 5 || n < 34 + data_offset * 4) return p;
    p.src_ip = be32(d.data() + 26);
    p.dst_ip = be32(d.data() + 30);
    p.src_port = be16(d.data() + 34);
    p.dst_port = be16(d.data() + 36);
    p.flags |= kProbeClean | kTcp;
  }
  return p;
}

void BatchFilter::probe_batch_scalar(std::span<const net::RawPacketView> batch) {
  probes_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    probes_[i] = probe_one_scalar(batch[i].data);
}

void BatchFilter::probe_batch_simd(std::span<const net::RawPacketView> batch) {
  probes_.resize(batch.size());

#if defined(__SSE2__)
  // One masked 16-byte compare over frame bytes 12..27 answers the
  // branchy header questions at once: ethertype == IPv4, version 4 with
  // a 20-byte header (0x45), fragment offset 0. A single movemask test
  // replaces five data-dependent branches per packet.
  alignas(16) static constexpr std::uint8_t kMaskBytes[16] = {
      0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0x1f, 0xff, 0, 0, 0, 0, 0, 0};
  alignas(16) static constexpr std::uint8_t kPatBytes[16] = {
      0x08, 0x00, 0x45, 0, 0, 0, 0, 0, 0x00, 0x00, 0, 0, 0, 0, 0, 0};
  const __m128i mask = _mm_load_si128(reinterpret_cast<const __m128i*>(kMaskBytes));
  const __m128i pat = _mm_load_si128(reinterpret_cast<const __m128i*>(kPatBytes));
#elif defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // SWAR fallback: the same masked compare with two 64-bit words
  // (bytes 12..19 and 16..23 of the frame, little-endian loads).
  constexpr std::uint64_t kMask0 = 0x0000000000ffffffULL;  // d[12..14]
  constexpr std::uint64_t kPat0 = 0x0000000000450008ULL;   // 08 00 45
  constexpr std::uint64_t kMask1 = 0x0000ff1f00000000ULL;  // d[20..21] frag bits
  constexpr std::uint64_t kPat1 = 0;
#endif

  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::span<const std::uint8_t> d = batch[i].data;
    const std::size_t n = d.size();
    // Short frames (and everything the vector screen rejects below) go
    // through the scalar reference — bit-identical by construction.
    if (n < 44) {
      probes_[i] = probe_one_scalar(d);
      continue;
    }

    bool fast_header;
#if defined(__SSE2__)
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(d.data() + 12));
    fast_header =
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_and_si128(chunk, mask), pat)) == 0xffff;
#elif defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::uint64_t w0;
    std::uint64_t w1;
    std::memcpy(&w0, d.data() + 12, 8);
    std::memcpy(&w1, d.data() + 16, 8);
    fast_header = (w0 & kMask0) == kPat0 && (w1 & kMask1) == kPat1;
#else
    fast_header = false;
#endif
    if (!fast_header) {
      // Odd layout (non-IPv4, IP options, fragment): the scalar probe
      // settles it, including the liberal candidate-arming rule.
      probes_[i] = probe_one_scalar(d);
      continue;
    }

    // Fast-header packets: ethertype IPv4, 20-byte header, fragment
    // offset 0. Field extraction is plain loads; the remaining checks
    // mirror probe_one_scalar's clean path exactly.
    Probe p;
    p.proto = d[23];
    p.src_ip = be32(d.data() + 26);
    p.dst_ip = be32(d.data() + 30);
    const bool total_len_ok = be16(d.data() + 16) >= 20;
    if (p.proto == 17) {
      p.src_port = be16(d.data() + 34);
      p.dst_port = be16(d.data() + 36);
      const bool stun_touch = p.src_port == zoom::kStunServerPort ||
                              p.dst_port == zoom::kStunServerPort;
      if (stun_touch) p.flags |= kArmCandidates;
      if (total_len_ok && be16(d.data() + 38) >= 8) {
        p.flags |= kProbeClean | kUdp;
        if (stun_touch) p.flags |= kStunPortTouch;
        p.flags |= shape_flags(d, p.src_port, p.dst_port, stun_touch);
      }
    } else if (p.proto == 6 && total_len_ok && n >= 54) {
      const std::size_t data_offset = d[46] >> 4;
      if (data_offset >= 5 && n >= 34 + data_offset * 4) {
        p.src_port = be16(d.data() + 34);
        p.dst_port = be16(d.data() + 36);
        p.flags |= kProbeClean | kTcp;
      }
    }
    probes_[i] = p;
  }
}

void BatchFilter::resolve(std::span<const net::RawPacketView> batch,
                          BatchVerdicts& out) {
  const zoom::ServerDb& db = config_.server_db;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Probe& p = probes_[i];
    ++stats_.packets;
    out.flags[i] = 0;
    out.shard[i] = 0;
    out.slot[i] = 0;
    out.flow_hash[i] = 0;

    // Arm first, then classify: the packet's own endpoints joining the
    // candidate set only ever promotes a would-be Reject to Admit
    // (over-admission is safe; under-arming is not).
    if (p.flags & kArmCandidates) {
      candidate_insert(endpoint_key(p.src_ip, p.src_port));
      candidate_insert(endpoint_key(p.dst_ip, p.dst_port));
    }

    if (!(p.flags & kProbeClean)) {
      out.verdicts[i] = Verdict::FullParse;
      ++stats_.full_parse;
      continue;
    }

    const bool src_server = db.contains(net::Ipv4Addr(p.src_ip));
    const bool dst_server = db.contains(net::Ipv4Addr(p.dst_ip));
    bool admit;
    if (p.flags & kUdp) {
      admit = src_server || dst_server ||
              candidate_contains(endpoint_key(p.src_ip, p.src_port)) ||
              candidate_contains(endpoint_key(p.dst_ip, p.dst_port));
    } else {
      // TCP: the analyzer only ever looks at server-involved flows.
      admit = src_server || dst_server;
    }
    // One canonical hash per packet feeds the sketch tier, the dispatch
    // table and the owner-shard choice alike (net::canonical_flow_hash).
    const net::FiveTuple canonical =
        net::FiveTuple{net::Ipv4Addr(p.src_ip), net::Ipv4Addr(p.dst_ip),
                       p.src_port, p.dst_port, p.proto}
            .canonical();
    const net::PackedFlowKey key(canonical);
    const std::uint64_t hash = net::canonical_flow_hash(key);
    out.flow_hash[i] = hash;

    if (!admit) {
      out.verdicts[i] = Verdict::Reject;
      ++stats_.rejected;
      // The sketch tier summarizes what the filter rejects: counts only,
      // no decode, no verdict influence — captured wire bytes, same as
      // the analyzer's total-bytes accounting for these packets.
      if (sketch_)
        sketch_->queue(SketchOp{key, hash, {},
                                static_cast<std::uint32_t>(batch[i].data.size()),
                                SketchOp::Kind::Absorb});
      continue;
    }

    out.verdicts[i] = Verdict::Admit;
    ++stats_.admitted;
    std::uint8_t flags = 0;
    if ((p.flags & kUdp) && (p.flags & kStunPortTouch)) {
      flags |= kFlagStunPort;
      ++stats_.stun_flagged;
    }
    if (p.flags & kZoomShape) {
      flags |= kFlagZoomShaped;
      ++stats_.zoom_shaped;
    }
    out.flags[i] = flags;

    const FlowDispatchTable::Hit hit =
        flows_.lookup_or_insert(key, hash, config_.shards);
    out.shard[i] = hit.shard;
    out.slot[i] = hit.slot;

    // Data-plane metric offload: server media packets whose jitter/RTT
    // fields sit at fixed offsets are absorbed by the owner shard's
    // register stage and marked covered, so the host dispatch path
    // skips its per-packet metric updates for them. Coverage never
    // changes a verdict — uncovered flows are untouched either way.
    if (!offloads_.empty() && (p.flags & kUdp) && (p.flags & kZoomShape)) {
      if (const auto fields = extract_offload_fields(batch[i].data)) {
        const OffloadUpdate u =
            offloads_[hit.shard].on_media_packet(batch[i].ts, *fields);
        out.flags[i] |= kFlagOffloadCovered;
        ++stats_.offload_covered;
        stats_.offload_collisions += u.probe_collisions + u.telemetry_collisions;
        stats_.offload_evictions += u.flow_evictions;
      }
    }

    // First Admit of a flow: if the tier had already summarized it
    // (rejected until a STUN exchange armed its endpoint), the worker
    // hands the accumulated aggregate to exact tracking.
    if (hit.inserted && sketch_)
      sketch_->queue(SketchOp{key, hash, {}, hit.shard, SketchOp::Kind::Promote});
  }
}

void BatchFilter::classify(std::span<const net::RawPacketView> batch,
                           BatchVerdicts& out) {
  out.resize(batch.size());
  if (batch.empty()) return;
  if (simd_) {
    probe_batch_simd(batch);
    ++stats_.simd_batches;
  } else {
    probe_batch_scalar(batch);
    ++stats_.scalar_batches;
  }
  resolve(batch, out);
  if (sketch_) sketch_->publish();
}

}  // namespace zpm::capture
