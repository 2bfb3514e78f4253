// The capture front end's two contracts (capture/batch_filter.h):
//
//  1. Bit identity — analyzer output is identical with the front end on
//     or off, scalar or SIMD probe, serial or sharded (1-4), on clean
//     and hostile traces. The only permitted difference is the
//     frontend_rejected health counter itself (and ring_wait_spins,
//     which is timing-dependent by documentation).
//  2. Conservative verdicts — Reject only for packets the analyzer
//     would provably ignore; look-alike port squatters are never
//     flagged Zoom-shaped; everything uncertain falls back to the full
//     decode path.
//
// Plus the stage-2 routing contract: FlowDispatchTable's owner shard is
// exactly std::hash<net::FiveTuple> % shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "capture/batch_filter.h"
#include "core/analyzer.h"
#include "net/build.h"
#include "net/packet.h"
#include "pipeline/parallel_analyzer.h"
#include "proto/stun.h"
#include "sim/campus.h"
#include "sim/corruptor.h"
#include "sim/meeting.h"
#include "zoom/constants.h"

namespace zpm::capture {
namespace {

using util::Timestamp;

constexpr std::size_t kBatch = 256;

/// ring_wait_spins is documented nondeterministic; frontend_rejected is
/// the front end's own (expected) delta. Everything else must match.
core::AnalyzerHealth normalized(core::AnalyzerHealth h) {
  h.frontend_rejected = 0;
  h.ring_wait_spins = 0;
  return h;
}

std::vector<net::RawPacketView> views_of(const std::vector<net::RawPacket>& trace,
                                         std::size_t begin, std::size_t end) {
  std::vector<net::RawPacketView> batch;
  batch.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) batch.push_back(net::as_view(trace[i]));
  return batch;
}

/// Serial analyzer pass, optionally screened by a front end.
void run_serial(const std::vector<net::RawPacket>& trace, core::Analyzer& analyzer,
                BatchFilter* filter) {
  BatchVerdicts verdicts;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    if (filter == nullptr) {
      for (const auto& view : batch) analyzer.offer(view);
      continue;
    }
    filter->classify(batch, verdicts);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (verdicts.verdicts[j] == Verdict::Reject)
        analyzer.account_frontend_rejected(batch[j]);
      else
        analyzer.offer(batch[j]);
    }
  }
  analyzer.finish();
}

/// Sharded pass, optionally with front-end verdicts.
void run_parallel(const std::vector<net::RawPacket>& trace,
                  pipeline::ParallelAnalyzer& par, BatchFilter* filter) {
  BatchVerdicts verdicts;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    if (filter == nullptr) {
      par.offer_batch(batch, pipeline::BatchLifetime::Pinned);
    } else {
      filter->classify(batch, verdicts);
      par.offer_batch(batch, pipeline::BatchLifetime::Pinned, verdicts);
    }
  }
  par.finish();
}

std::vector<net::RawPacket> meeting_trace() {
  sim::MeetingConfig mc;
  mc.seed = 31;
  mc.duration = util::Duration::seconds(40);
  sim::ParticipantConfig a, b, c;
  a.ip = net::Ipv4Addr(10, 8, 0, 1);
  b.ip = net::Ipv4Addr(10, 8, 0, 2);
  c.ip = net::Ipv4Addr(98, 0, 0, 3);
  c.on_campus = false;
  b.send_screen_share = true;
  mc.participants = {a, b, c};
  return sim::run_meeting(mc);
}

/// Campus background (optionally through the hostile corruptor) merged
/// with one genuine meeting.
std::vector<net::RawPacket> campus_trace(bool hostile) {
  // Campus background + corruptor output alone carries no real Zoom
  // media (the scheduler drops meetings clamped under 2 minutes, and a
  // 45 s window clamps them all), so a genuine meeting is merged into
  // the same window: the front end must keep admitting the real traffic
  // while the hostile mix tries to confuse it.
  sim::CampusConfig cc;
  cc.seed = 99;
  cc.duration = util::Duration::seconds(45);
  cc.meetings_per_peak_hour = 30.0;
  cc.background_ratio = 1.0;  // plenty of front-end-rejectable traffic
  if (hostile) cc.corruption = sim::CorruptorConfig::hostile(0xBEEF);
  sim::CampusSimulation campus(cc);
  std::vector<net::RawPacket> trace;
  while (auto pkt = campus.next_packet()) trace.push_back(std::move(*pkt));

  sim::MeetingConfig mc;
  mc.seed = 31;
  mc.start = cc.day_start + util::Duration::seconds(2);
  mc.duration = util::Duration::seconds(40);
  sim::ParticipantConfig a, b, c;
  a.ip = net::Ipv4Addr(10, 8, 0, 1);
  b.ip = net::Ipv4Addr(10, 8, 0, 2);
  c.ip = net::Ipv4Addr(98, 0, 0, 3);
  c.on_campus = false;
  b.send_screen_share = true;
  mc.participants = {a, b, c};
  auto meeting = sim::run_meeting(mc);

  // Two-pointer interleave by timestamp. The corruptor intentionally
  // leaves timestamp regressions in the campus stream, so this is a
  // deterministic weave rather than a std::merge of sorted ranges.
  std::vector<net::RawPacket> merged;
  merged.reserve(trace.size() + meeting.size());
  std::size_t i = 0, j = 0;
  while (i < trace.size() || j < meeting.size()) {
    bool take_campus = j == meeting.size() ||
                       (i < trace.size() && trace[i].ts <= meeting[j].ts);
    merged.push_back(std::move(take_campus ? trace[i++] : meeting[j++]));
  }
  return merged;
}

std::vector<net::RawPacket> hostile_campus_trace() { return campus_trace(true); }

void expect_serial_equal(const core::Analyzer& a, const core::Analyzer& b) {
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_EQ(normalized(a.health()), normalized(b.health()));
  EXPECT_EQ(a.zoom_flow_count(), b.zoom_flow_count());
  EXPECT_EQ(a.streams().size(), b.streams().size());
  EXPECT_EQ(a.streams().media_count(), b.streams().media_count());
  EXPECT_EQ(a.meetings().meeting_count(), b.meetings().meeting_count());
  EXPECT_EQ(a.sfu_rtt_samples().size(), b.sfu_rtt_samples().size());
}

void check_bit_identity(const std::vector<net::RawPacket>& trace) {
  // Serial reference: front end off.
  core::AnalyzerConfig cfg;
  core::Analyzer baseline(cfg);
  run_serial(trace, baseline, nullptr);

  // Serial with front end, scalar and SIMD probes.
  for (auto mode : {BatchFilter::Mode::ForceScalar, BatchFilter::Mode::ForceSimd}) {
    SCOPED_TRACE(mode == BatchFilter::Mode::ForceScalar ? "serial/scalar"
                                                        : "serial/simd");
    BatchFilter filter(BatchFilterConfig{cfg.server_db, 1}, mode);
    core::Analyzer screened(cfg);
    run_serial(trace, screened, &filter);
    expect_serial_equal(baseline, screened);
    EXPECT_EQ(screened.health().frontend_rejected, filter.stats().rejected);
  }

  // Sharded, front end on vs off, at 1/2/3/4 shards (3: a modulus that
  // is not a power of two).
  for (std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    pipeline::ParallelAnalyzerConfig par_cfg;
    par_cfg.analyzer = cfg;
    par_cfg.shards = shards;

    pipeline::ParallelAnalyzer plain(par_cfg);
    run_parallel(trace, plain, nullptr);

    BatchFilter filter(BatchFilterConfig{cfg.server_db, shards});
    pipeline::ParallelAnalyzer screened(par_cfg);
    run_parallel(trace, screened, &filter);

    EXPECT_EQ(baseline.counters(), plain.counters());
    EXPECT_EQ(baseline.counters(), screened.counters());
    EXPECT_EQ(normalized(baseline.health()), normalized(plain.health()));
    EXPECT_EQ(normalized(baseline.health()), normalized(screened.health()));
    EXPECT_EQ(screened.health().frontend_rejected, filter.stats().rejected);
    EXPECT_EQ(baseline.zoom_flow_count(), screened.zoom_flow_count());
    EXPECT_EQ(baseline.streams().size(), screened.streams().size());
    EXPECT_EQ(baseline.streams().media_count(), screened.media_count());
    EXPECT_EQ(baseline.meetings().meeting_count(),
              screened.meetings().meeting_count());
    EXPECT_EQ(baseline.sfu_rtt_samples().size(), screened.sfu_rtt_samples().size());
    if (const auto& v = screened.strict_violation(); v || baseline.strict_violation())
      FAIL() << "unexpected strict violation (strict mode is off)";
  }
}

TEST(BatchFilter, BitIdentityOnCleanMeetingTrace) {
  check_bit_identity(meeting_trace());
}

TEST(BatchFilter, BitIdentityOnHostileCampusTrace) {
  auto trace = hostile_campus_trace();
  ASSERT_GT(trace.size(), 1000u);
  check_bit_identity(trace);
}

TEST(BatchFilter, FrontEndActuallyRejectsBackgroundTraffic) {
  // The identity above would hold trivially for a filter that admits
  // everything; the campus mix must exercise all three verdicts.
  auto trace = hostile_campus_trace();
  BatchFilter filter(BatchFilterConfig{});
  BatchVerdicts verdicts;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    filter.classify(batch, verdicts);
  }
  const FrontEndStats& s = filter.stats();
  EXPECT_EQ(s.packets, trace.size());
  EXPECT_GT(s.rejected, 0u);
  EXPECT_GT(s.admitted, 0u);
  EXPECT_GT(s.zoom_shaped, 0u);
  EXPECT_GT(s.full_parse, 0u);  // hostile mix mangles headers
  EXPECT_EQ(s.admitted + s.rejected + s.full_parse, s.packets);
  EXPECT_GT(filter.flow_count(), 0u);
}

TEST(BatchFilter, ScalarAndSimdVerdictsBitIdentical) {
  auto trace = hostile_campus_trace();
  BatchFilter scalar(BatchFilterConfig{}, BatchFilter::Mode::ForceScalar);
  BatchFilter simd(BatchFilterConfig{}, BatchFilter::Mode::ForceSimd);
  BatchVerdicts vs, vv;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    scalar.classify(batch, vs);
    simd.classify(batch, vv);
    ASSERT_EQ(vs, vv) << "batch starting at packet " << i;
  }
  EXPECT_EQ(scalar.stats().admitted, simd.stats().admitted);
  EXPECT_EQ(scalar.stats().rejected, simd.stats().rejected);
  EXPECT_EQ(scalar.stats().full_parse, simd.stats().full_parse);
  EXPECT_GT(simd.stats().simd_batches, 0u);
  EXPECT_EQ(simd.stats().scalar_batches, 0u);
}

// ---------------------------------------------------------------------------
// Verdict rules on hand-built packets

const net::Ipv4Addr kCampus(10, 8, 0, 1);
const net::Ipv4Addr kOther(23, 1, 2, 3);
const net::Ipv4Addr kZoomServer(170, 114, 0, 10);

BatchVerdicts classify_one(BatchFilter& filter, const net::RawPacket& pkt) {
  std::vector<net::RawPacketView> batch = {net::as_view(pkt)};
  BatchVerdicts v;
  filter.classify(batch, v);
  return v;
}

std::vector<std::uint8_t> zoom_audio_payload() {
  // SFU encap type 5, media encap type 15 (audio), RTP PT 112
  // (speaking) at the documented offset.
  std::vector<std::uint8_t> p(8 + zoom::media_payload_offset(15) + 12, 0);
  p[0] = zoom::kSfuTypeMedia;
  p[8] = 15;
  p[8 + zoom::media_payload_offset(15)] = 0x80;      // RTP v2
  p[8 + zoom::media_payload_offset(15) + 1] = 112;   // Table 3 audio PT
  return p;
}

TEST(BatchFilter, ServerTrafficIsAdmitted) {
  BatchFilter filter(BatchFilterConfig{});
  auto v = classify_one(
      filter, net::build_udp(Timestamp::from_seconds(1), kCampus, 40000,
                             kZoomServer, zoom::kServerMediaPort,
                             zoom_audio_payload()));
  EXPECT_EQ(v.verdicts[0], Verdict::Admit);
  EXPECT_TRUE(v.flags[0] & kFlagZoomShaped);
  EXPECT_FALSE(v.flags[0] & kFlagStunPort);
}

TEST(BatchFilter, UnrelatedUdpAndTcpAreRejected) {
  BatchFilter filter(BatchFilterConfig{});
  std::vector<std::uint8_t> payload(64, 0x42);
  auto udp = classify_one(filter,
                          net::build_udp(Timestamp::from_seconds(1), kCampus, 40000,
                                         kOther, 53, payload));
  EXPECT_EQ(udp.verdicts[0], Verdict::Reject);
  auto tcp = classify_one(
      filter, net::build_tcp(Timestamp::from_seconds(2), kCampus, 40000, kOther,
                             443, 1, 1, 0x18, payload));
  EXPECT_EQ(tcp.verdicts[0], Verdict::Reject);
  EXPECT_EQ(filter.stats().rejected, 2u);
}

TEST(BatchFilter, TcpToServerIsAdmitted) {
  BatchFilter filter(BatchFilterConfig{});
  std::vector<std::uint8_t> payload(32, 0);
  auto v = classify_one(
      filter, net::build_tcp(Timestamp::from_seconds(1), kCampus, 40000,
                             kZoomServer, 443, 1, 1, 0x18, payload));
  EXPECT_EQ(v.verdicts[0], Verdict::Admit);
}

TEST(BatchFilter, StunExchangeArmsP2pCandidateEndpoints) {
  BatchFilter filter(BatchFilterConfig{});
  // Without the STUN exchange this P2P-looking flow would be rejected.
  std::vector<std::uint8_t> media(100, 0x10);
  auto before = classify_one(
      filter, net::build_udp(Timestamp::from_seconds(1), kCampus, 50000, kOther,
                             50001, media));
  EXPECT_EQ(before.verdicts[0], Verdict::Reject);

  // Campus host talks STUN with a Zoom zone controller; the filter must
  // arm the campus endpoint even though it only probes fixed offsets.
  std::vector<std::uint8_t> stun = {0x00, 0x01, 0x00, 0x00,
                                    0x21, 0x12, 0xa4, 0x42,
                                    1,    2,    3,    4,
                                    5,    6,    7,    8,
                                    9,    10,   11,   12};
  auto bind = classify_one(
      filter, net::build_udp(Timestamp::from_seconds(2), kCampus, 50000,
                             kZoomServer, zoom::kStunServerPort, stun));
  EXPECT_EQ(bind.verdicts[0], Verdict::Admit);
  EXPECT_TRUE(bind.flags[0] & kFlagStunPort);
  EXPECT_TRUE(bind.flags[0] & kFlagZoomShaped);
  EXPECT_GE(filter.candidate_endpoint_count(), 2u);

  // The same P2P flow is now admitted (the analyzer may count it).
  auto after = classify_one(
      filter, net::build_udp(Timestamp::from_seconds(3), kCampus, 50000, kOther,
                             50001, media));
  EXPECT_EQ(after.verdicts[0], Verdict::Admit);
}

TEST(BatchFilter, UncertainLayoutsFallBackToFullParse) {
  BatchFilter filter(BatchFilterConfig{});
  std::vector<net::RawPacketView> batch;
  std::vector<std::vector<std::uint8_t>> frames;

  // Non-IPv4 ethertype (ARP).
  frames.push_back(std::vector<std::uint8_t>(60, 0));
  frames.back()[12] = 0x08;
  frames.back()[13] = 0x06;
  // IPv4 with options (ihl 6): decodable, but not probe-clean.
  auto with_options =
      net::build_udp(Timestamp::from_seconds(1), kCampus, 1111, kOther, 2222,
                     std::vector<std::uint8_t>(40, 0))
          .data;
  with_options[14] = 0x46;
  frames.push_back(with_options);
  // Fragment (offset 8).
  auto fragment =
      net::build_udp(Timestamp::from_seconds(1), kCampus, 1111, kOther, 2222,
                     std::vector<std::uint8_t>(40, 0))
          .data;
  fragment[21] = 0x01;
  frames.push_back(fragment);
  // Frame too short for a full UDP header.
  frames.push_back(std::vector<std::uint8_t>(30, 0));
  frames.back()[12] = 0x08;
  frames.back()[13] = 0x00;
  frames.back()[14] = 0x45;
  frames.back()[23] = 17;
  // Fuzzer find: clean-looking IPv4 prefix with a plausible total
  // length but the frame cut inside the address fields (n in [24, 34))
  // — the probe must bail out before dereferencing the addresses.
  frames.push_back(std::vector<std::uint8_t>(32, 0));
  frames.back()[12] = 0x08;
  frames.back()[13] = 0x00;
  frames.back()[14] = 0x45;
  frames.back()[17] = 40;  // total_length = 40
  frames.back()[23] = 17;

  for (const auto& f : frames)
    batch.push_back(net::RawPacketView{Timestamp::from_seconds(1), f, 0});
  BatchVerdicts v;
  filter.classify(batch, v);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(v.verdicts[i], Verdict::FullParse) << "frame " << i;
  EXPECT_EQ(filter.stats().full_parse, batch.size());
}

TEST(BatchFilter, LookAlikePortSquattersAreNeverZoomShaped) {
  // sim::TraceCorruptor's look-alikes: campus hosts talking garbage UDP
  // on ports 8801/3478, half toward unrelated external addresses, half
  // toward Zoom server space. None may be flagged Zoom-shaped, and the
  // external-address squatters must never be admitted at all unless a
  // (port-3478) exchange armed their endpoint — in which case they get
  // a full parse downstream, not a silent Zoom classification.
  sim::CorruptorConfig cc;
  cc.seed = 0x10CA1;
  cc.lookalike_prob = 1.0;
  sim::TraceCorruptor corruptor(cc);
  std::vector<net::RawPacket> emitted;
  std::vector<std::uint8_t> benign(64, 0x33);
  for (int i = 0; i < 400; ++i) {
    corruptor.process(net::build_udp(Timestamp::from_seconds(i), kCampus, 9000,
                                     kOther, 9001, benign),
                      emitted);
  }
  ASSERT_GT(corruptor.stats().lookalikes_injected, 100u);

  const zoom::ServerDb& db = zoom::ServerDb::official();
  BatchFilter filter(BatchFilterConfig{});
  BatchVerdicts v;
  std::size_t lookalikes = 0;
  for (const auto& pkt : emitted) {
    auto verdicts = classify_one(filter, pkt);
    auto view = net::decode_packet(pkt.ts, pkt.data);
    ASSERT_TRUE(view);
    bool zoom_port = view->l4 == net::L4Proto::Udp &&
                     (view->udp.src_port == zoom::kServerMediaPort ||
                      view->udp.dst_port == zoom::kServerMediaPort ||
                      view->udp.src_port == zoom::kStunServerPort ||
                      view->udp.dst_port == zoom::kStunServerPort);
    if (!zoom_port) continue;  // the benign carrier packet
    ++lookalikes;
    EXPECT_FALSE(verdicts.flags[0] & kFlagZoomShaped)
        << "garbage payload flagged as Zoom-shaped";
    bool server_involved = db.contains(view->ip.src) || db.contains(view->ip.dst);
    bool stun_port = view->udp.src_port == zoom::kStunServerPort ||
                     view->udp.dst_port == zoom::kStunServerPort;
    if (!server_involved && !stun_port) {
      // External 8801 squatter: nothing can have armed it.
      EXPECT_NE(verdicts.verdicts[0], Verdict::Admit)
          << "external port squatter silently admitted";
    }
  }
  EXPECT_GT(lookalikes, 100u);
}

// ---------------------------------------------------------------------------
// Sketch tier: screening parity + promotion path

TEST(BatchFilter, SketchTierNeverChangesVerdictsOrReports) {
  // Same hostile trace, tier off vs on: verdict/flag/shard/slot arrays
  // must match packet for packet (the tier only observes rejects), and
  // the downstream report must stay bit-identical — health included,
  // since sketch churn is accounted filter-side, not analyzer-side.
  auto trace = hostile_campus_trace();
  core::AnalyzerConfig cfg;

  BatchFilterConfig plain_cfg{cfg.server_db, 4};
  BatchFilterConfig sketch_cfg{cfg.server_db, 4};
  sketch_cfg.flow_memory_budget = 1 << 20;
  BatchFilter plain(plain_cfg);
  BatchFilter sketched(sketch_cfg);
  ASSERT_FALSE(plain.sketch_enabled());
  ASSERT_TRUE(sketched.sketch_enabled());

  BatchVerdicts vp, vs;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    plain.classify(batch, vp);
    sketched.classify(batch, vs);
    ASSERT_EQ(vp.verdicts, vs.verdicts) << "batch at " << i;
    ASSERT_EQ(vp.flags, vs.flags) << "batch at " << i;
    ASSERT_EQ(vp.shard, vs.shard) << "batch at " << i;
    ASSERT_EQ(vp.slot, vs.slot) << "batch at " << i;
  }
  EXPECT_TRUE(plain.promotions().empty());  // disabled tier never promotes

  // The tier summarized exactly the rejected packets.
  const sketch::TierReport report = sketched.sketch_report(10);
  EXPECT_EQ(report.stats.absorbed_packets, sketched.stats().rejected);
  EXPECT_GT(report.stats.absorbed_packets, 0u);
  EXPECT_FALSE(report.heavy_hitters.empty());

  // End-to-end: analyzer reports identical with tier on/off; the only
  // health difference the tier may ever cause is via the CLI's explicit
  // sketch_evicted injection, which is not part of this path.
  core::Analyzer base(cfg), with_tier(cfg);
  BatchFilter f1(plain_cfg), f2(sketch_cfg);
  run_serial(trace, base, &f1);
  run_serial(trace, with_tier, &f2);
  expect_serial_equal(base, with_tier);
  EXPECT_EQ(base.health(), with_tier.health());  // incl. frontend_rejected
  EXPECT_EQ(with_tier.health().sketch_evicted, 0u);
}

TEST(BatchFilter, LateAdmittedFlowIsPromotedWithCarriedAggregate) {
  // A P2P-looking flow is rejected (absorbed by the tier) until a STUN
  // exchange arms its endpoint; the first admit must surface a promotion
  // carrying the tier's pre-admission aggregate.
  BatchFilterConfig cfg{};
  cfg.shards = 4;
  cfg.flow_memory_budget = 256 << 10;
  BatchFilter filter(cfg);

  std::vector<std::uint8_t> media(100, 0x10);
  const net::FiveTuple p2p_flow =
      net::FiveTuple{kCampus, kOther, 50000, 50001, 17}.canonical();
  std::uint64_t pre_bytes = 0;
  for (int i = 0; i < 5; ++i) {
    auto pkt = net::build_udp(Timestamp::from_seconds(1 + i), kCampus, 50000,
                              kOther, 50001, media);
    pre_bytes += pkt.data.size();
    auto v = classify_one(filter, pkt);
    ASSERT_EQ(v.verdicts[0], Verdict::Reject);
    ASSERT_TRUE(filter.promotions().empty());
  }

  std::vector<std::uint8_t> stun = {0x00, 0x01, 0x00, 0x00, 0x21, 0x12, 0xa4,
                                    0x42, 1,    2,    3,    4,    5,    6,
                                    7,    8,    9,    10,   11,   12};
  classify_one(filter, net::build_udp(Timestamp::from_seconds(10), kCampus,
                                      50000, kZoomServer,
                                      zoom::kStunServerPort, stun));

  auto admitted = classify_one(
      filter, net::build_udp(Timestamp::from_seconds(11), kCampus, 50000,
                             kOther, 50001, media));
  ASSERT_EQ(admitted.verdicts[0], Verdict::Admit);
  ASSERT_EQ(filter.promotions().size(), 1u);
  const Promotion promo = filter.promotions()[0];
  EXPECT_EQ(promo.flow, p2p_flow);
  EXPECT_EQ(promo.shard, admitted.shard[0]);
  EXPECT_EQ(promo.carried.packets, 5u);
  EXPECT_EQ(promo.carried.bytes, pre_bytes);

  // Promotion removed the flow from the tier's heavy table; a repeat
  // admit of the same flow is no longer "inserted" and promotes nothing.
  auto again = classify_one(
      filter, net::build_udp(Timestamp::from_seconds(12), kCampus, 50000,
                             kOther, 50001, media));
  ASSERT_EQ(again.verdicts[0], Verdict::Admit);
  EXPECT_EQ(filter.promotions().size(), 1u);

  // Demotion hands the flow back: the tier re-absorbs the aggregate and
  // counts the churn in sketch_evicted().
  const std::uint64_t churn_before = filter.sketch_evicted();
  EXPECT_TRUE(filter.demote_flow(p2p_flow, sketch::FlowStats{6, 600}));
  EXPECT_EQ(filter.sketch_evicted(), churn_before + 1);
  EXPECT_FALSE(filter.demote_flow(p2p_flow, sketch::FlowStats{}))
      << "second demotion of an unknown flow must fail";
}

TEST(BatchFilter, SketchEvictionChurnIsAccounted) {
  // A tiny budget and thousands of distinct rejected flows force
  // SpaceSaving evictions; sketch_evicted() must expose them.
  BatchFilterConfig cfg{};
  cfg.shards = 2;
  cfg.flow_memory_budget = 2;  // minimum tables per shard
  BatchFilter filter(cfg);
  std::vector<std::uint8_t> payload(64, 0x42);
  std::vector<net::RawPacket> pkts;
  for (std::uint32_t n = 0; n < 2000; ++n) {
    pkts.push_back(net::build_udp(
        Timestamp::from_seconds(1), kCampus,
        static_cast<std::uint16_t>(20000 + (n >> 8)), kOther,
        static_cast<std::uint16_t>(30000 + (n & 0xff)), payload));
  }
  std::vector<net::RawPacketView> batch;
  for (const auto& p : pkts) batch.push_back(net::as_view(p));
  BatchVerdicts v;
  filter.classify(batch, v);
  ASSERT_EQ(filter.stats().rejected, pkts.size());
  EXPECT_GT(filter.sketch_evicted(), 0u);
}

// ---------------------------------------------------------------------------
// Sketch tier on its worker thread

std::vector<std::uint8_t> tier_image(const sketch::FlowTier& tier) {
  util::ByteWriter w;
  tier.serialize(w);
  return w.take();
}

/// Threads of this process, from /proc/self/task.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

/// `count` single-packet flows the front end rejects.
std::vector<net::RawPacket> background_flows(std::uint32_t count) {
  std::vector<std::uint8_t> payload(64, 0x42);
  std::vector<net::RawPacket> pkts;
  for (std::uint32_t n = 0; n < count; ++n)
    pkts.push_back(net::build_udp(Timestamp::from_seconds(1), kCampus,
                                  static_cast<std::uint16_t>(20000 + (n >> 12)),
                                  kOther,
                                  static_cast<std::uint16_t>(30000 + (n & 0xfff)),
                                  payload));
  return pkts;
}

void classify_all(BatchFilter& filter, const std::vector<net::RawPacket>& trace) {
  BatchVerdicts v;
  for (std::size_t i = 0; i < trace.size(); i += kBatch)
    filter.classify(views_of(trace, i, std::min(trace.size(), i + kBatch)), v);
}

TEST(BatchFilter, AsyncTierMatchesDirectlyFedTiers) {
  // The worker must leave every tier exactly as FlowTiers fed in packet
  // order on this thread would: each Reject absorbed, each flow's first
  // Admit promoted, then one demotion.
  constexpr std::size_t kBudget = 256 << 10;
  for (const bool hostile : {false, true}) {
    const auto trace = campus_trace(hostile);
    for (std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(hostile ? "hostile" : "campus") +
                   " shards=" + std::to_string(shards));
      BatchFilterConfig cfg{};
      cfg.shards = shards;
      cfg.flow_memory_budget = kBudget;
      BatchFilter filter(cfg);
      std::vector<sketch::FlowTier> ref;
      for (std::size_t i = 0; i < shards; ++i) ref.emplace_back(kBudget / shards);
      std::vector<Promotion> ref_promotions;

      BatchVerdicts v;
      std::uint32_t next_slot = 0;  // slots are handed out in first-sight order
      for (std::size_t i = 0; i < trace.size(); i += kBatch) {
        const auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
        filter.classify(batch, v);
        for (std::size_t j = 0; j < batch.size(); ++j) {
          const bool reject = v.verdicts[j] == Verdict::Reject;
          const bool first_admit = v.verdicts[j] == Verdict::Admit && v.slot[j] == next_slot;
          if (!reject && !first_admit) continue;
          const auto view = net::decode_packet(batch[j].ts, batch[j].data);
          ASSERT_TRUE(view.has_value());
          const net::PackedFlowKey key(view->five_tuple().canonical());
          const std::uint64_t hash = net::canonical_flow_hash(key);
          ASSERT_EQ(hash, v.flow_hash[j]);
          sketch::FlowTier& tier = ref[hash % shards];
          if (reject) {
            tier.absorb(key, hash, static_cast<std::uint32_t>(batch[j].data.size()));
            continue;
          }
          ++next_slot;
          const sketch::FlowStats carried = tier.promote(key, hash);
          if (carried.packets > 0)
            ref_promotions.push_back(Promotion{key.unpack(), v.shard[j], carried});
        }
      }
      ASSERT_GT(filter.stats().rejected, 0u);
      ASSERT_FALSE(ref_promotions.empty()) << "trace must exercise promotion";

      const Promotion demoted = ref_promotions.front();
      ASSERT_TRUE(filter.demote_flow(demoted.flow, sketch::FlowStats{3, 300}));
      const net::PackedFlowKey dkey(demoted.flow);
      const std::uint64_t dhash = net::canonical_flow_hash(dkey);
      ref[dhash % shards].demote(dkey, dhash, sketch::FlowStats{3, 300});

      std::vector<const sketch::FlowTier*> ref_ptrs;
      std::uint64_t ref_evicted = 0;
      for (const auto& tier : ref) {
        ref_ptrs.push_back(&tier);
        ref_evicted += tier.stats().evictions + tier.stats().demotions;
      }
      const sketch::TierReport want = sketch::merge_tiers(ref_ptrs, 50);
      const sketch::TierReport got = filter.sketch_report(50);
      EXPECT_EQ(got.stats, want.stats);
      EXPECT_EQ(got.heavy_hitters, want.heavy_hitters);
      EXPECT_EQ(filter.sketch_evicted(), ref_evicted);
      EXPECT_EQ(filter.promotions(), ref_promotions);
      for (std::size_t s = 0; s < shards; ++s)
        EXPECT_EQ(tier_image(filter.tier(s)), tier_image(ref[s])) << "tier " << s;
    }
  }
}

TEST(BatchFilter, DestroyingFilterWithQueuedOpsReturns) {
  // Far more ops than the ring holds: the last classify() returns with
  // the worker still busy, and destruction must wait it out cleanly.
  const auto pkts = background_flows(100'000);
  std::vector<net::RawPacketView> batch;
  for (const auto& p : pkts) batch.push_back(net::as_view(p));
  BatchFilterConfig cfg{};
  cfg.shards = 3;
  cfg.flow_memory_budget = 1 << 20;
  const std::size_t before = thread_count();
  {
    BatchFilter filter(cfg);
    BatchVerdicts v;
    filter.classify(batch, v);
    EXPECT_EQ(filter.stats().rejected, pkts.size());
  }
  EXPECT_EQ(thread_count(), before) << "worker outlived its filter";
}

TEST(BatchFilter, MovedFilterKeepsItsWorker) {
  const auto pkts = background_flows(6000);
  const std::vector<net::RawPacket> first(pkts.begin(), pkts.begin() + 2000);
  const std::vector<net::RawPacket> second(pkts.begin() + 2000, pkts.begin() + 4000);
  const std::vector<net::RawPacket> third(pkts.begin() + 4000, pkts.end());
  BatchFilterConfig cfg{};
  cfg.shards = 2;
  cfg.flow_memory_budget = 64 << 10;

  BatchFilter a(cfg);
  classify_all(a, first);  // starts the worker
  BatchFilter b(std::move(a));
  classify_all(b, second);
  BatchFilter c(cfg);
  c = std::move(b);
  classify_all(c, third);
  EXPECT_EQ(c.sketch_report(1).stats.absorbed_packets, pkts.size());

  // Same ops, never moved: identical tiers.
  BatchFilter still(cfg);
  classify_all(still, pkts);
  for (std::size_t s = 0; s < cfg.shards; ++s)
    EXPECT_EQ(tier_image(c.tier(s)), tier_image(still.tier(s)));
}

TEST(BatchFilter, WorkerStartsOnlyForTierWork) {
  core::AnalyzerConfig acfg;
  const std::size_t before = thread_count();

  // Tier off: rejects, but no worker.
  BatchFilter off(BatchFilterConfig{acfg.server_db, 2});
  classify_all(off, hostile_campus_trace());
  ASSERT_GT(off.stats().rejected, 0u);
  EXPECT_EQ(thread_count(), before) << "tier off";

  // Tier on, Zoom-only traffic: nothing rejected, no worker.
  BatchFilterConfig on_cfg{acfg.server_db, 2};
  on_cfg.flow_memory_budget = 1 << 20;
  BatchFilter quiet(on_cfg);
  classify_all(quiet, meeting_trace());
  ASSERT_EQ(quiet.stats().rejected, 0u);
  ASSERT_GT(quiet.stats().admitted, 0u);
  EXPECT_EQ(thread_count(), before) << "no rejects";
  EXPECT_EQ(quiet.sketch_report(10).stats, sketch::TierStats{});

  // The count does see the worker once the tier has work.
  BatchFilter busy(on_cfg);
  classify_all(busy, background_flows(10));
  EXPECT_EQ(thread_count(), before + 1);
}

// ---------------------------------------------------------------------------
// FlowDispatchTable

TEST(FlowDispatchTable, OwnerShardMatchesStdHashAndSlotsAreStable) {
  FlowDispatchTable table(16);  // small: forces several growth cycles
  util::Rng rng(7);
  std::vector<net::FiveTuple> flows;
  for (int i = 0; i < 5000; ++i) {
    net::FiveTuple t;
    t.src_ip = net::Ipv4Addr(rng.next_u32());
    t.dst_ip = net::Ipv4Addr(rng.next_u32());
    t.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    t.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    t.protocol = rng.chance(0.5) ? net::kIpProtoUdp : net::kIpProtoTcp;
    flows.push_back(t.canonical());
  }
  constexpr std::size_t kShards = 4;
  std::vector<FlowDispatchTable::Hit> first;
  for (const auto& flow : flows) {
    auto hit = table.lookup_or_insert(flow, kShards);
    EXPECT_EQ(hit.shard, std::hash<net::FiveTuple>{}(flow) % kShards);
    first.push_back(hit);
  }
  EXPECT_LE(table.size(), flows.size());
  // Second pass: same slot, same shard, no new entries.
  const std::size_t size_after_first = table.size();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto hit = table.lookup_or_insert(flows[i], kShards);
    EXPECT_EQ(hit.shard, first[i].shard);
    EXPECT_EQ(hit.slot, first[i].slot);
  }
  EXPECT_EQ(table.size(), size_after_first);
}

}  // namespace
}  // namespace zpm::capture
