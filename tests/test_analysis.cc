// Campus run driver and table builders.
#include <gtest/gtest.h>

#include "analysis/campus_run.h"
#include "analysis/tables.h"

namespace zpm::analysis {
namespace {

const CampusRunResult& small_run() {
  static const CampusRunResult result = [] {
    CampusRunConfig config;
    config.campus.seed = 99;
    config.campus.duration = util::Duration::seconds(2 * 3600.0);
    config.campus.meetings_per_peak_hour = 4.0;
    config.campus.background_ratio = 1.5;
    config.frame_sample_every = 2;
    return run_campus(config);
  }();
  return result;
}

TEST(CampusRun, PipelineEndToEnd) {
  const auto& r = small_run();
  EXPECT_GT(r.sim_summary.meetings, 1u);
  EXPECT_GT(r.capture.processed, 10'000u);
  EXPECT_GT(r.capture.dropped, 1'000u);    // background filtered out
  EXPECT_GT(r.counters.media_packets, 5'000u);
  EXPECT_GT(r.stream_count, 4u);
  EXPECT_GE(r.meeting_count, 1u);
  EXPECT_FALSE(r.samples.empty());
  EXPECT_FALSE(r.all_packet_rate.empty());
  EXPECT_FALSE(r.zoom_packet_rate.empty());
  EXPECT_LT(r.first_packet, r.last_packet);
}

TEST(CampusRun, AnonymizationDoesNotBreakDetection) {
  // The run anonymizes at the filter; the analyzer still must decode
  // essentially every passed packet (prefix preservation at work).
  const auto& r = small_run();
  EXPECT_GT(r.counters.zoom_packets, r.capture.passed * 95 / 100);
}

TEST(CampusRun, ZoomRateBelowTotalRate) {
  const auto& r = small_run();
  double all = 0, zoom = 0;
  for (const auto& bin : r.all_packet_rate) all += bin.total;
  for (const auto& bin : r.zoom_packet_rate) zoom += bin.total;
  EXPECT_GT(all, zoom);
  EXPECT_GT(zoom, 0.0);
}

TEST(CampusRun, MediaRateDominatedByVideo) {
  const auto& r = small_run();
  auto total_for = [&](zoom::MediaKind kind) {
    double total = 0;
    auto it = r.media_rate.find(static_cast<std::uint8_t>(kind));
    if (it == r.media_rate.end()) return 0.0;
    for (const auto& bin : it->second) total += bin.total;
    return total;
  };
  double video = total_for(zoom::MediaKind::Video);
  double audio = total_for(zoom::MediaKind::Audio);
  EXPECT_GT(video, audio * 3.0);  // Fig. 14: video dominates
}

TEST(Tables, Table2RowsSumAndOrder) {
  const auto& r = small_run();
  auto rows = table2_rows(r.counters);
  ASSERT_GE(rows.size(), 4u);
  // Video first (most packets), offsets per Table 2.
  EXPECT_EQ(rows[0].value, 16);
  EXPECT_EQ(rows[0].offset, 24u);
  double pkt_sum = 0;
  for (const auto& row : rows) pkt_sum += row.pct_packets;
  EXPECT_GT(pkt_sum, 0.80);  // >90% decodable in the paper; >80% here
  EXPECT_LE(pkt_sum, 1.0 + 1e-9);
}

TEST(Tables, Table3RowsKnownTypes) {
  const auto& r = small_run();
  auto rows = table3_rows(r.counters);
  ASSERT_GE(rows.size(), 4u);
  EXPECT_EQ(rows[0].media_type, "Video (16)");
  EXPECT_EQ(rows[0].rtp_pt, 98);
  double sum = 0;
  bool has_silent = false, has_fec = false;
  for (const auto& row : rows) {
    sum += row.pct_packets;
    if (row.description == "silent mode") has_silent = true;
    if (row.description == "FEC") has_fec = true;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);  // denominators are media packets
  EXPECT_TRUE(has_silent);
  EXPECT_TRUE(has_fec);
}

TEST(Tables, HealthAllClearIgnoresGaugesAndAccounting) {
  core::AnalyzerHealth h;
  EXPECT_TRUE(health_all_clear(h));
  // Timing gauges (sharded ring backpressure, watchdog, kernel ring)
  // and accounting-only counters are not loss.
  h.ring_wait_spins = 4096;
  h.source_stalls = 1;
  h.kernel_packets = 100'000;
  h.kernel_drops = 7;
  h.frontend_rejected = 50;
  h.sketch_evicted = 3;
  h.overload_shed_l2 = 9;
  h.offload_covered_packets = 20;
  EXPECT_FALSE(h.all_clear());
  EXPECT_TRUE(health_all_clear(h));
  // A real drop is.
  core::AnalyzerHealth dropped = h;
  dropped.malformed_rtp = 1;
  EXPECT_FALSE(health_all_clear(dropped));
  core::AnalyzerHealth truncated;
  truncated.bad_l3 = 2;
  EXPECT_FALSE(health_all_clear(truncated));
}

TEST(CampusRun, SamplesCarryDistributionShapes) {
  const auto& r = small_run();
  std::size_t video = 0, audio = 0, screen_zero_fps = 0, screen = 0;
  for (const auto& s : r.samples) {
    auto kind = static_cast<zoom::MediaKind>(s.kind);
    if (kind == zoom::MediaKind::Video) ++video;
    if (kind == zoom::MediaKind::Audio) ++audio;
    if (kind == zoom::MediaKind::ScreenShare) {
      ++screen;
      if (s.frame_rate == 0.0f) ++screen_zero_fps;
    }
  }
  EXPECT_GT(video, 100u);
  EXPECT_GT(audio, 100u);
  if (screen > 100) {
    // Fig. 15b: a noticeable share of screen-share seconds deliver no
    // frame at all.
    EXPECT_GT(static_cast<double>(screen_zero_fps) / static_cast<double>(screen),
              0.03);
  }
}

TEST(CampusRun, ShardedRunMatchesSerial) {
  // analysis_threads routes through pipeline::ParallelAnalyzer; the full
  // driver output (filter + anonymization + extraction included) must
  // not change.
  CampusRunConfig config;
  config.campus.seed = 7;
  config.campus.duration = util::Duration::seconds(900);
  config.campus.meetings_per_peak_hour = 40.0;
  config.campus.background_ratio = 0.5;
  config.frame_sample_every = 2;
  const CampusRunResult serial = run_campus(config);
  config.analysis_threads = 3;
  const CampusRunResult sharded = run_campus(config);

  EXPECT_EQ(serial.counters, sharded.counters);
  EXPECT_EQ(serial.stream_count, sharded.stream_count);
  EXPECT_EQ(serial.media_count, sharded.media_count);
  EXPECT_EQ(serial.meeting_count, sharded.meeting_count);
  EXPECT_EQ(serial.zoom_flow_count, sharded.zoom_flow_count);
  ASSERT_EQ(serial.samples.size(), sharded.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    EXPECT_EQ(serial.samples[i].kind, sharded.samples[i].kind) << i;
    EXPECT_EQ(serial.samples[i].media_bitrate_bps,
              sharded.samples[i].media_bitrate_bps) << i;
    EXPECT_EQ(serial.samples[i].frame_rate, sharded.samples[i].frame_rate) << i;
    EXPECT_EQ(serial.samples[i].avg_frame_bytes,
              sharded.samples[i].avg_frame_bytes) << i;
    EXPECT_EQ(serial.samples[i].jitter_ms, sharded.samples[i].jitter_ms) << i;
  }
  ASSERT_EQ(serial.frame_sizes.size(), sharded.frame_sizes.size());
  for (const auto& [kind, sizes] : serial.frame_sizes) {
    auto it = sharded.frame_sizes.find(kind);
    ASSERT_NE(it, sharded.frame_sizes.end());
    EXPECT_EQ(sizes, it->second);
  }
}

}  // namespace
}  // namespace zpm::analysis
