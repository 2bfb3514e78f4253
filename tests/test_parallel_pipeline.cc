// The determinism contract of the sharded pipeline: for any trace and
// any shard count, ParallelAnalyzer's merged result must be
// bit-identical to a single serial core::Analyzer over the same
// packets — counters, stream table (ids, metrics, per-second records),
// meetings and RTT samples alike.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/analyzer.h"
#include "pipeline/parallel_analyzer.h"
#include "sim/campus.h"
#include "sim/meeting.h"

namespace zpm::pipeline {
namespace {

void expect_equivalent(const core::Analyzer& serial, const ParallelAnalyzer& par) {
  EXPECT_EQ(serial.counters(), par.counters());
  EXPECT_EQ(serial.zoom_flow_count(), par.zoom_flow_count());
  EXPECT_EQ(serial.streams().media_count(), par.media_count());

  // Health counters are part of the determinism contract too — only the
  // ring-spin backpressure gauge is timing-dependent (and always zero on
  // the serial path), so zero it before the bit-identity comparison.
  core::AnalyzerHealth sh = serial.health();
  core::AnalyzerHealth ph = par.health();
  EXPECT_EQ(sh.ring_wait_spins, 0u);
  sh.ring_wait_spins = 0;
  ph.ring_wait_spins = 0;
  EXPECT_EQ(sh, ph);

  const auto& ss = serial.streams().streams();
  const auto& ps = par.streams();
  ASSERT_EQ(ss.size(), ps.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    const core::StreamInfo& a = *ss[i];
    const core::StreamInfo& b = *ps[i];
    EXPECT_EQ(a.index, b.index) << "stream " << i;
    EXPECT_EQ(a.key.flow, b.key.flow) << "stream " << i;
    EXPECT_EQ(a.key.ssrc, b.key.ssrc) << "stream " << i;
    EXPECT_EQ(a.kind, b.kind) << "stream " << i;
    EXPECT_EQ(a.direction, b.direction) << "stream " << i;
    EXPECT_EQ(a.media_id, b.media_id) << "stream " << i;
    EXPECT_EQ(a.meeting_id, b.meeting_id) << "stream " << i;
    EXPECT_EQ(a.first_seen, b.first_seen) << "stream " << i;
    EXPECT_EQ(a.last_seen, b.last_seen) << "stream " << i;

    EXPECT_EQ(a.metrics->media_packets(), b.metrics->media_packets());
    EXPECT_EQ(a.metrics->media_payload_bytes(), b.metrics->media_payload_bytes());
    EXPECT_EQ(a.metrics->total_loss().gap_packets,
              b.metrics->total_loss().gap_packets);
    EXPECT_EQ(a.metrics->jitter_ms(), b.metrics->jitter_ms());
    // Bit-identical, not approximately equal: the replay feeds samples
    // in the exact serial order, so the double arithmetic matches.
    EXPECT_EQ(a.metrics->mean_latency_ms(), b.metrics->mean_latency_ms());

    const auto& asec = a.metrics->seconds();
    const auto& bsec = b.metrics->seconds();
    ASSERT_EQ(asec.size(), bsec.size()) << "stream " << i;
    for (std::size_t j = 0; j < asec.size(); ++j) {
      EXPECT_EQ(asec[j].bin_start, bsec[j].bin_start);
      EXPECT_EQ(asec[j].packets, bsec[j].packets);
      EXPECT_EQ(asec[j].media_bytes, bsec[j].media_bytes);
      EXPECT_EQ(asec[j].transport_bytes, bsec[j].transport_bytes);
      EXPECT_EQ(asec[j].frames_completed, bsec[j].frames_completed);
      EXPECT_EQ(asec[j].frame_rate_fps, bsec[j].frame_rate_fps);
      EXPECT_EQ(asec[j].jitter_ms, bsec[j].jitter_ms);
      EXPECT_EQ(asec[j].latency_ms, bsec[j].latency_ms)
          << "stream " << i << " second " << j;
      EXPECT_EQ(asec[j].duplicates, bsec[j].duplicates);
      EXPECT_EQ(asec[j].reordered, bsec[j].reordered);
    }
  }

  ASSERT_EQ(serial.meetings().meeting_count(), par.meetings().meeting_count());
  auto sm = serial.meetings().meetings();
  auto pm = par.meetings().meetings();
  ASSERT_EQ(sm.size(), pm.size());
  for (std::size_t i = 0; i < sm.size(); ++i) {
    EXPECT_EQ(sm[i]->id, pm[i]->id) << "meeting " << i;
    EXPECT_EQ(sm[i]->media_ids, pm[i]->media_ids) << "meeting " << i;
    EXPECT_EQ(sm[i]->client_ips, pm[i]->client_ips) << "meeting " << i;
    EXPECT_EQ(sm[i]->stream_count, pm[i]->stream_count) << "meeting " << i;
    EXPECT_EQ(sm[i]->first_seen, pm[i]->first_seen) << "meeting " << i;
    EXPECT_EQ(sm[i]->last_seen, pm[i]->last_seen) << "meeting " << i;
    EXPECT_EQ(sm[i]->saw_p2p, pm[i]->saw_p2p) << "meeting " << i;
    ASSERT_EQ(sm[i]->rtt_to_sfu.size(), pm[i]->rtt_to_sfu.size());
    for (std::size_t j = 0; j < sm[i]->rtt_to_sfu.size(); ++j) {
      EXPECT_EQ(sm[i]->rtt_to_sfu[j].when, pm[i]->rtt_to_sfu[j].when);
      EXPECT_EQ(sm[i]->rtt_to_sfu[j].rtt, pm[i]->rtt_to_sfu[j].rtt);
    }
  }

  const auto& sr = serial.sfu_rtt_samples();
  const auto& pr = par.sfu_rtt_samples();
  ASSERT_EQ(sr.size(), pr.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].when, pr[i].when);
    EXPECT_EQ(sr[i].rtt, pr[i].rtt);
  }

  const auto& st = serial.tcp_rtt();
  const auto& pt = par.tcp_rtt();
  ASSERT_EQ(st.size(), pt.size());
  for (const auto& [flow, est] : st) {
    auto it = pt.find(flow);
    ASSERT_NE(it, pt.end());
    EXPECT_EQ(est.server_rtt().size(), it->second.server_rtt().size());
    EXPECT_EQ(est.client_rtt().size(), it->second.client_rtt().size());
  }
}

void check_trace(const std::vector<net::RawPacket>& trace) {
  core::AnalyzerConfig cfg;
  core::Analyzer serial(cfg);
  for (const auto& pkt : trace) serial.offer(pkt);
  serial.finish();
  ASSERT_GT(serial.streams().size(), 0u) << "trace produced no streams";

  // 3 shards: a modulus that is not a power of two.
  for (std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ParallelAnalyzerConfig par_cfg;
    par_cfg.analyzer = cfg;
    par_cfg.shards = shards;
    {
      ParallelAnalyzer par(par_cfg);
      for (const auto& pkt : trace) par.offer(pkt);
      par.finish();
      EXPECT_EQ(par.shard_count(), shards);
      expect_equivalent(serial, par);
    }

    // The batched zero-copy path must be bit-identical to per-packet
    // offer() in both lifetime modes. Pinned is legal here because
    // `trace` outlives finish(); Transient re-copies the batch, so the
    // same views exercise the block-building path.
    for (auto lifetime : {BatchLifetime::Pinned, BatchLifetime::Transient}) {
      SCOPED_TRACE(lifetime == BatchLifetime::Pinned ? "pinned" : "transient");
      ParallelAnalyzer par(par_cfg);
      constexpr std::size_t kBatch = 64;
      std::vector<net::RawPacketView> batch;
      batch.reserve(kBatch);
      for (std::size_t i = 0; i < trace.size(); i += kBatch) {
        batch.clear();
        for (std::size_t j = i; j < trace.size() && j < i + kBatch; ++j)
          batch.push_back(net::as_view(trace[j]));
        par.offer_batch(batch, lifetime);
      }
      par.finish();
      expect_equivalent(serial, par);
    }
  }
}

TEST(ParallelPipeline, MatchesSerialOnSfuMeeting) {
  sim::MeetingConfig mc;
  mc.seed = 1;
  mc.duration = util::Duration::seconds(45);
  sim::ParticipantConfig a, b, c;
  a.ip = net::Ipv4Addr(10, 8, 0, 1);
  b.ip = net::Ipv4Addr(10, 8, 0, 2);
  b.send_screen_share = true;
  c.ip = net::Ipv4Addr(98, 0, 0, 3);  // off-campus participant
  c.on_campus = false;
  mc.participants = {a, b, c};
  check_trace(sim::run_meeting(mc));
}

TEST(ParallelPipeline, MatchesSerialOnP2pSwitch) {
  // Two-party meeting that switches to P2P mid-way: exercises the STUN
  // broadcast path (the P2P flow may hash to a different shard than the
  // STUN exchange's server flow).
  sim::MeetingConfig mc;
  mc.seed = 7;
  mc.duration = util::Duration::seconds(60);
  mc.p2p_switch_after = util::Duration::seconds(15);
  sim::ParticipantConfig a, b;
  a.ip = net::Ipv4Addr(10, 8, 0, 11);
  b.ip = net::Ipv4Addr(203, 0, 113, 9);
  b.on_campus = false;
  mc.participants = {a, b};
  check_trace(sim::run_meeting(mc));
}

TEST(ParallelPipeline, MatchesSerialOnCampusTrace) {
  // A small multi-meeting campus slice: concurrent meetings, background
  // noise, P2P switches — the cross-shard grouping stress case.
  sim::CampusConfig cc;
  cc.seed = 99;
  cc.duration = util::Duration::seconds(240);
  cc.meetings_per_peak_hour = 80.0;
  cc.background_ratio = 0.5;
  sim::CampusSimulation campus(cc);
  std::vector<net::RawPacket> trace;
  while (auto pkt = campus.next_packet()) trace.push_back(std::move(*pkt));
  check_trace(trace);
}

TEST(ParallelPipeline, MatchesSerialOnCorruptedCampusTrace) {
  // The same contract must hold on a hostile trace: truncation, bit
  // flips, drops/dups, capture cuts, timestamp regressions and injected
  // look-alikes all flow through both engines, and the health counters
  // (checked inside expect_equivalent) must match bit-for-bit as well.
  sim::CampusConfig cc;
  cc.seed = 99;
  cc.duration = util::Duration::seconds(240);
  cc.meetings_per_peak_hour = 80.0;
  cc.background_ratio = 0.5;
  cc.corruption = sim::CorruptorConfig::hostile(0xBAD);
  sim::CampusSimulation campus(cc);
  std::vector<net::RawPacket> trace;
  while (auto pkt = campus.next_packet()) trace.push_back(std::move(*pkt));
  check_trace(trace);
}

}  // namespace
}  // namespace zpm::pipeline
