// The continuous-source contract: ReplayLiveSource must deliver the
// exact packet sequence of the underlying trace — independent of batch
// size, pacing, loops (up to the documented timestamp shift), stalls
// and skip_to position, and whether the trace is mapped or arrives
// through a FIFO — with views that point into the trace mapping and
// survive a move of the source; and every BatchSource must keep EOF,
// transient idleness and hard errors distinguishable through
// SourceStatus.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/live_source.h"
#include "net/pcap.h"
#include "net/trace_source.h"
#include "sim/meeting.h"

namespace zpm::net {
namespace {

std::string temp_path(const char* name) {
  // PID-unique: parallel ctest workers share /tmp, and a half-written
  // trace under another worker's mmap is a SIGBUS.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Writes a short simulated meeting to a pcap once; returns its path.
const std::string& meeting_trace() {
  static const std::string path = [] {
    const std::string p = temp_path("live_source_meeting.pcap");
    sim::MeetingConfig mc;
    mc.seed = 11;
    mc.start = util::Timestamp::from_seconds(1'700'000'000);
    mc.duration = util::Duration::seconds(10);
    sim::ParticipantConfig a, b;
    a.ip = Ipv4Addr(10, 8, 1, 20);
    b.ip = Ipv4Addr(10, 8, 2, 31);
    mc.participants = {a, b};
    sim::MeetingSim sim(mc);
    PcapWriter writer(p);
    while (auto pkt = sim.next_packet()) writer.write(*pkt);
    EXPECT_TRUE(writer.ok());
    EXPECT_GT(writer.packets_written(), 100u);
    return p;
  }();
  return path;
}

/// Drains a source to EndOfStream, collecting owned copies.
std::vector<RawPacket> drain(BatchSource& source, std::size_t max_batch) {
  std::vector<RawPacket> all;
  std::vector<RawPacketView> batch;
  for (;;) {
    switch (source.poll_batch(batch, max_batch)) {
      case SourceStatus::Batch:
        for (const auto& v : batch) all.push_back(v.to_owned());
        break;
      case SourceStatus::Idle:
        continue;
      case SourceStatus::EndOfStream:
        return all;
      case SourceStatus::Error:
        ADD_FAILURE() << "unexpected Error: " << source.error();
        return all;
    }
  }
}

void expect_same_packet(const RawPacket& a, const RawPacket& b,
                        std::size_t index) {
  ASSERT_EQ(a.ts.us(), b.ts.us()) << "packet " << index;
  ASSERT_EQ(a.data, b.data) << "packet " << index;
  ASSERT_EQ(a.orig_len, b.orig_len) << "packet " << index;
}

void expect_same_packets(const std::vector<RawPacket>& got,
                         const std::vector<RawPacket>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_same_packet(got[i], expected[i], i);
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Rewrites the meeting trace as pcapng (SHB, one Ethernet IDB with
/// microsecond ticks, one EPB per packet); returns its path.
const std::string& meeting_trace_pcapng() {
  static const std::string path = [] {
    std::string buf;
    auto u16 = [&](std::uint16_t v) {
      buf.push_back(static_cast<char>(v));
      buf.push_back(static_cast<char>(v >> 8));
    };
    auto u32 = [&](std::uint32_t v) {
      u16(static_cast<std::uint16_t>(v));
      u16(static_cast<std::uint16_t>(v >> 16));
    };
    for (std::uint32_t v : {0x0a0d0d0au, 28u, 0x1a2b3c4du}) u32(v);
    u16(1);
    u16(0);
    for (std::uint32_t v : {0xffffffffu, 0xffffffffu, 28u, 1u, 20u}) u32(v);
    u16(1);
    u16(0);
    u32(65535);
    u32(20);
    TraceSource trace(meeting_trace());
    while (auto pkt = trace.next()) {
      const auto size = static_cast<std::uint32_t>(pkt->data.size());
      const std::uint32_t len = 32 + ((size + 3u) & ~3u);
      const auto ticks = static_cast<std::uint64_t>(pkt->ts.us());
      for (std::uint32_t v : {6u, len, 0u, static_cast<std::uint32_t>(ticks >> 32),
                              static_cast<std::uint32_t>(ticks), size, size})
        u32(v);
      buf.append(reinterpret_cast<const char*>(pkt->data.data()), size);
      while (buf.size() % 4 != 0) buf.push_back(0);
      u32(len);
    }
    const std::string p = temp_path("live_source_meeting.pcapng");
    write_file(p, buf);
    return p;
  }();
  return path;
}

/// Address ranges at which this process maps `path`, read from
/// /proc/self/maps; empty where that file does not exist.
std::vector<std::pair<std::uintptr_t, std::uintptr_t>> mappings_of(
    const std::string& path) {
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
  const std::string name = std::filesystem::canonical(path).string();
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    // "start-end perms offset dev inode   /path/name"
    const auto slash = line.find('/');
    if (slash == std::string::npos || line.compare(slash, std::string::npos, name) != 0)
      continue;
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &lo, &hi) == 2)
      ranges.emplace_back(lo, hi);
  }
  return ranges;
}

/// Feeds `bytes` into the FIFO at `path` from a thread, once a reader
/// has opened it; gives up after a few seconds without one.
std::thread fifo_writer(const std::string& path, std::string bytes) {
  return std::thread([path, bytes = std::move(bytes)] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int fd = -1;
    while ((fd = ::open(path.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (fd < 0) return;
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
}

TEST(TraceSourceStatus, BatchesThenEndOfStream) {
  TraceSource source(meeting_trace());
  ASSERT_TRUE(source.ok());
  std::vector<RawPacketView> batch;
  std::uint64_t seen = 0;
  SourceStatus status;
  while ((status = source.poll_batch(batch, 256)) == SourceStatus::Batch) {
    ASSERT_FALSE(batch.empty());
    ASSERT_LE(batch.size(), 256u);
    seen += batch.size();
  }
  EXPECT_EQ(status, SourceStatus::EndOfStream);
  EXPECT_EQ(seen, source.packets_read());
  EXPECT_GT(seen, 0u);
  // EOF is sticky, not an error.
  EXPECT_EQ(source.poll_batch(batch, 256), SourceStatus::EndOfStream);
  EXPECT_TRUE(source.ok());
}

TEST(TraceSourceStatus, GarbageInputIsError) {
  const std::string path = temp_path("live_source_garbage.pcap");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a capture file at all, not even close", f);
    std::fclose(f);
  }
  TraceSource source(path);
  std::vector<RawPacketView> batch;
  EXPECT_EQ(source.poll_batch(batch, 256), SourceStatus::Error);
  EXPECT_FALSE(source.error().empty());
}

TEST(TraceSourceStatus, StatusNamesCoverEnum) {
  EXPECT_EQ(source_status_name(SourceStatus::Batch), "batch");
  EXPECT_EQ(source_status_name(SourceStatus::Idle), "idle");
  EXPECT_EQ(source_status_name(SourceStatus::EndOfStream), "end-of-stream");
  EXPECT_EQ(source_status_name(SourceStatus::Error), "error");
}

TEST(ReplayLiveSource, MatchesTraceExactly) {
  TraceSource trace(meeting_trace());
  ASSERT_TRUE(trace.ok());
  const auto expected = drain(trace, 512);

  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  ReplayLiveSource replay(cfg);
  ASSERT_TRUE(replay.ok()) << replay.error();
  expect_same_packets(drain(replay, 512), expected);
  EXPECT_EQ(replay.packets_read(), expected.size());
}

TEST(ReplayLiveSource, BatchContentIndependentOfBatchSize) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  ReplayLiveSource tiny(cfg);
  ReplayLiveSource huge(cfg);
  ASSERT_TRUE(tiny.ok());
  ASSERT_TRUE(huge.ok());
  expect_same_packets(drain(tiny, 7), drain(huge, 4096));
}

TEST(ReplayLiveSource, LoopsShiftTimestampsByStride) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.loops = 3;
  cfg.loop_gap = util::Duration::millis(25);
  ReplayLiveSource replay(cfg);
  ASSERT_TRUE(replay.ok());
  const std::uint64_t per_loop = replay.trace_packets();
  const auto stride = replay.loop_stride();
  EXPECT_GT(stride.us(), 0);

  const auto all = drain(replay, 333);
  ASSERT_EQ(all.size(), 3 * per_loop);
  for (std::size_t i = 0; i < per_loop; ++i) {
    const auto base = all[i].ts;
    EXPECT_EQ(all[per_loop + i].ts.us(), (base + stride).us());
    EXPECT_EQ(all[2 * per_loop + i].ts.us(), (base + stride + stride).us());
    EXPECT_EQ(all[per_loop + i].data, all[i].data);
  }
  // Capture time advances monotonically across the loop seam.
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_GE(all[i].ts.us(), all[i - 1].ts.us()) << "packet " << i;
}

TEST(ReplayLiveSource, SkipToResumesMidLoop) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.loops = 2;
  ReplayLiveSource full(cfg);
  ASSERT_TRUE(full.ok());
  const auto all = drain(full, 512);

  // Skip into the middle of the second loop: delivery continues with
  // exactly the packets a continuous run would have produced there.
  const std::uint64_t target = full.trace_packets() + 17;
  ReplayLiveSource skipped(cfg);
  ASSERT_TRUE(skipped.ok());
  ASSERT_TRUE(skipped.skip_to(target));
  EXPECT_EQ(skipped.packets_read(), target);
  const auto rest = drain(skipped, 512);
  ASSERT_EQ(rest.size(), all.size() - target);
  for (std::size_t i = 0; i < rest.size(); ++i)
    expect_same_packet(rest[i], all[target + i], i);
}

TEST(ReplayLiveSource, SkipToBeyondBudgetFails) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.loops = 1;
  ReplayLiveSource replay(cfg);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.skip_to(replay.trace_packets() + 1));
  // End-of-budget itself is a valid position (immediate EndOfStream).
  EXPECT_TRUE(replay.skip_to(replay.trace_packets()));
  std::vector<RawPacketView> batch;
  EXPECT_EQ(replay.poll_batch(batch, 16), SourceStatus::EndOfStream);

  // An infinite loop budget accepts any position.
  cfg.loops = 0;
  ReplayLiveSource infinite(cfg);
  ASSERT_TRUE(infinite.ok());
  EXPECT_TRUE(infinite.skip_to(100 * infinite.trace_packets() + 3));
  EXPECT_EQ(infinite.poll_batch(batch, 16), SourceStatus::Batch);
}

TEST(ReplayLiveSource, StallIsIdleUntilReopen) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.stall_after_packets = 40;
  ReplayLiveSource replay(cfg);
  ASSERT_TRUE(replay.ok());

  std::vector<RawPacketView> batch;
  std::uint64_t seen = 0;
  SourceStatus status;
  while ((status = replay.poll_batch(batch, 16)) == SourceStatus::Batch)
    seen += batch.size();
  // The source stalls at the trigger, not at end of data.
  EXPECT_EQ(status, SourceStatus::Idle);
  EXPECT_EQ(seen, 40u);
  EXPECT_TRUE(replay.stalled());
  // Idle is sticky until the watchdog reopens the source.
  EXPECT_EQ(replay.poll_batch(batch, 16), SourceStatus::Idle);

  ASSERT_TRUE(replay.reopen());
  EXPECT_FALSE(replay.stalled());
  EXPECT_EQ(replay.reopen_count(), 1u);
  // One-shot trigger: the replay now runs to the real end of stream.
  const auto rest = drain(replay, 512);
  EXPECT_EQ(seen + rest.size(), replay.trace_packets());
}

TEST(ReplayLiveSource, PacingDelaysButNeverChangesContent) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  ReplayLiveSource unpaced(cfg);
  ASSERT_TRUE(unpaced.ok());
  const auto expected = drain(unpaced, 512);

  cfg.pace_pps = 2'000'000.0;  // fast enough to finish promptly
  ReplayLiveSource paced(cfg);
  ASSERT_TRUE(paced.ok());
  // The very first poll starts the pacing clock at zero allowance.
  std::vector<RawPacketView> batch;
  EXPECT_EQ(paced.poll_batch(batch, 512), SourceStatus::Idle);
  expect_same_packets(drain(paced, 512), expected);
}

TEST(ReplayLiveSource, PacingRebasesAfterSkipTo) {
  // Regression: pacing used to grant allowance against the *absolute*
  // position, so a crash-recovery skip_to() deep into the stream left
  // the source Idle for position/pace_pps seconds while the wall clock
  // "caught up". Allowance must be relative to the resume point.
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.loops = 0;               // infinite: any skip target is valid
  cfg.pace_pps = 2'000'000.0;  // fast pace — yet catching up from zero
                               // to the skip target would take ~6 days
  ReplayLiveSource replay(cfg);
  ASSERT_TRUE(replay.ok());
  const std::uint64_t target = std::uint64_t{1} << 40;
  ASSERT_TRUE(replay.skip_to(target));

  std::vector<RawPacketView> batch;
  SourceStatus status = SourceStatus::Idle;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (status == SourceStatus::Idle &&
         std::chrono::steady_clock::now() < deadline)
    status = replay.poll_batch(batch, 64);
  ASSERT_EQ(status, SourceStatus::Batch);
  EXPECT_GT(replay.packets_read(), target);
}

TEST(ReplayLiveSource, PacingRebasesAfterReopen) {
  // Companion to the skip_to re-base: a reopen() after a long stall
  // must not grant a burst of stale catch-up allowance, and must not
  // stall either — the pace clock restarts at the resume position.
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.stall_after_packets = 8;
  cfg.pace_pps = 2'000'000.0;
  ReplayLiveSource replay(cfg);
  ASSERT_TRUE(replay.ok());
  std::vector<RawPacketView> batch;
  std::uint64_t seen = 0;
  while (!replay.stalled()) {
    // Paced polls interleave Idle with Batch; spin until the stall.
    const SourceStatus status = replay.poll_batch(batch, 4);
    ASSERT_NE(status, SourceStatus::Error);
    if (status == SourceStatus::Batch) seen += batch.size();
  }
  ASSERT_EQ(seen, 8u);
  ASSERT_TRUE(replay.reopen());

  SourceStatus status = SourceStatus::Idle;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (status == SourceStatus::Idle &&
         std::chrono::steady_clock::now() < deadline)
    status = replay.poll_batch(batch, 64);
  ASSERT_EQ(status, SourceStatus::Batch);
  EXPECT_GT(replay.packets_read(), seen);
}

TEST(ReplayLiveSource, MissingTraceIsError) {
  ReplayLiveSourceConfig cfg;
  cfg.path = temp_path("does_not_exist.pcap");
  ReplayLiveSource replay(cfg);
  EXPECT_FALSE(replay.ok());
  EXPECT_FALSE(replay.error().empty());
  std::vector<RawPacketView> batch;
  EXPECT_EQ(replay.poll_batch(batch, 16), SourceStatus::Error);
  EXPECT_FALSE(replay.reopen());
}

/// Drains `replay` and counts the delivered views whose bytes are not
/// inside one of `ranges`.
std::size_t views_outside(ReplayLiveSource& replay,
                          const std::vector<std::pair<std::uintptr_t, std::uintptr_t>>& ranges) {
  std::size_t outside = 0;
  std::vector<RawPacketView> batch;
  while (replay.poll_batch(batch, 500) == SourceStatus::Batch) {
    for (const auto& view : batch) {
      const auto lo = reinterpret_cast<std::uintptr_t>(view.data.data());
      const auto hi = lo + view.data.size();
      bool inside = false;
      for (const auto& [begin, end] : ranges) inside |= lo >= begin && hi <= end;
      outside += inside ? 0 : 1;
    }
  }
  return outside;
}

TEST(ReplayLiveSource, ViewsPointIntoTheMapping) {
  for (const std::string& path : {meeting_trace(), meeting_trace_pcapng()}) {
    ReplayLiveSourceConfig cfg;
    cfg.path = path;
    cfg.loops = 2;
    ReplayLiveSource replay(cfg);
    ASSERT_TRUE(replay.ok()) << replay.error();
    EXPECT_TRUE(replay.mapped()) << path;
    const auto ranges = mappings_of(path);
    if (ranges.empty()) GTEST_SKIP() << "no /proc/self/maps entry for " << path;
    EXPECT_EQ(views_outside(replay, ranges), 0u) << path;
    EXPECT_EQ(replay.packets_read(), 2 * replay.trace_packets()) << path;
  }
}

TEST(ReplayLiveSource, PcapngReplaysLikePcap) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.loops = 2;
  ReplayLiveSource pcap(cfg);
  cfg.path = meeting_trace_pcapng();
  ReplayLiveSource pcapng(cfg);
  ASSERT_TRUE(pcap.ok()) << pcap.error();
  ASSERT_TRUE(pcapng.ok()) << pcapng.error();
  expect_same_packets(drain(pcapng, 512), drain(pcap, 512));
}

TEST(ReplayLiveSource, ViewsSurviveAMove) {
  ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  ReplayLiveSource reference(cfg);
  ASSERT_TRUE(reference.ok());
  const auto expected = drain(reference, 512);

  ReplayLiveSource original(cfg);
  ASSERT_TRUE(original.ok());
  std::vector<RawPacketView> first;
  ASSERT_EQ(original.poll_batch(first, 64), SourceStatus::Batch);
  ReplayLiveSource moved(std::move(original));
  // Views handed out before the move still read the same bytes...
  std::vector<RawPacket> got;
  for (const auto& view : first) got.push_back(view.to_owned());
  // ...and the moved source carries on where the original stopped.
  const auto rest = drain(moved, 512);
  got.insert(got.end(), rest.begin(), rest.end());
  expect_same_packets(got, expected);
}

TEST(ReplayLiveSource, FifoReplaysThroughOwnedCopies) {
  const std::string fifo = temp_path("live_source.fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer = fifo_writer(fifo, file_contents(meeting_trace()));
  ReplayLiveSourceConfig cfg;
  cfg.path = fifo;
  cfg.loops = 3;
  ReplayLiveSource from_fifo(cfg);
  writer.join();
  std::remove(fifo.c_str());
  ASSERT_TRUE(from_fifo.ok()) << from_fifo.error();
  EXPECT_FALSE(from_fifo.mapped());

  // Loop 0 is exactly what TraceSource yields; all three loops match a
  // mapped replay of the same file, stride shifts included. The owned
  // copies move with the source like the mapping does.
  TraceSource trace(meeting_trace());
  const auto one_pass = drain(trace, 512);
  cfg.path = meeting_trace();
  ReplayLiveSource from_file(cfg);
  ASSERT_TRUE(from_file.ok());
  EXPECT_EQ(from_fifo.trace_packets(), one_pass.size());
  EXPECT_EQ(from_fifo.loop_stride().us(), from_file.loop_stride().us());
  ReplayLiveSource moved(std::move(from_fifo));
  const auto got = drain(moved, 333);
  ASSERT_EQ(got.size(), 3 * one_pass.size());
  expect_same_packets(
      std::vector<RawPacket>(got.begin(),
                             got.begin() + static_cast<std::ptrdiff_t>(one_pass.size())),
      one_pass);
  expect_same_packets(got, drain(from_file, 512));
}

TEST(ReplayLiveSource, LoadErrorsKeepTheirMessages) {
  auto error_of = [](const std::string& path) {
    ReplayLiveSourceConfig cfg;
    cfg.path = path;
    ReplayLiveSource replay(cfg);
    EXPECT_FALSE(replay.ok()) << path;
    std::vector<RawPacketView> batch;
    EXPECT_EQ(replay.poll_batch(batch, 16), SourceStatus::Error) << path;
    return replay.error();
  };
  const std::string missing = temp_path("replay_missing.pcap");
  EXPECT_EQ(error_of(missing), "replay: cannot open " + missing +
                                   " (cannot open capture " + missing + ")");

  const std::string zero_bytes = temp_path("replay_zero_bytes.pcap");
  write_file(zero_bytes, "");
  EXPECT_EQ(error_of(zero_bytes), "replay: cannot open " + zero_bytes +
                                      " (cannot open capture " + zero_bytes + ")");

  const std::string garbage = temp_path("replay_garbage.pcap");
  write_file(garbage, "this is not a capture file at all, not even close");
  EXPECT_EQ(error_of(garbage),
            "replay: cannot open " + garbage + " (unrecognized capture format)");

  const std::string trace = file_contents(meeting_trace());
  const std::string header_only = temp_path("replay_header_only.pcap");
  write_file(header_only, trace.substr(0, 24));
  EXPECT_EQ(error_of(header_only), "replay: " + header_only + " contains no records");

  // Cut inside the first record's bytes: a parse error, not a short trace.
  const std::string corrupt = temp_path("replay_corrupt.pcap");
  write_file(corrupt, trace.substr(0, 24 + 16 + 10));
  EXPECT_EQ(error_of(corrupt), "replay: " + corrupt + ": truncated packet");

  for (const auto& p : {zero_bytes, garbage, header_only, corrupt}) std::remove(p.c_str());
}

TEST(LiveSource, UnavailableBackendFailsCleanly) {
  // No privileges / no such interface: the constructor must fail with a
  // diagnostic, never crash, and reopen() must keep failing cleanly.
  LiveSourceConfig cfg;
  cfg.interface = "zpm-test-no-such-interface0";
  LiveSource source(cfg);
  if (source.ok()) GTEST_SKIP() << "unexpectedly privileged environment";
  EXPECT_FALSE(source.error().empty());
  std::vector<RawPacketView> batch;
  EXPECT_EQ(source.poll_batch(batch, 16), SourceStatus::Error);
  EXPECT_FALSE(source.reopen());
}

}  // namespace
}  // namespace zpm::net
