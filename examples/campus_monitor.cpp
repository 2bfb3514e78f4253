// campus_monitor — the operator's live view: campus traffic through the
// P4-style capture filter into the analyzer, with per-interval status
// lines (active meetings, streams, Zoom share of traffic, media rates).
// This is the "capacity planning / troubleshooting" use case from §1.
//
// Usage: campus_monitor [hours] [meetings_per_peak_hour]
//        campus_monitor --pcap <capture.pcap[ng]> [--no-frontend]
//                       [--frontend-stats] [--flow-memory-budget <bytes>]
//                       [--no-sketch] [--sketch-stats] [--dataplane-offload]
//        campus_monitor --make-trace <out.pcap> [--minutes <m>]
//                       [--meetings <per-peak-hour>] [--seed <n>]
//                       [--burst <period-seconds>] [--burst-flows <n>]
//        campus_monitor --daemon (--replay <trace> | --live <iface>)
//                       [--loops <n>] [--pace-pps <pps>]
//                       [--stall-after <pkts>] [--epoch-packets <n>]
//                       [--epoch-seconds <s>] [--snapshot <file>]
//                       [--report-dir <dir>] [--site <name>] [--no-journal]
//                       [--config <file>]
//                       [--watchdog-seconds <s>] [--threads <n>]
//                       [--halt-after-epochs <n>] [--no-frontend]
//                       [--flow-memory-budget <bytes>] [--quiet]
//                       [--overload | --no-overload]
//                       [--overload-window <pkts>] [--overload-inject <spec>]
//                       [--overload-high <x>] [--overload-low <x>]
//                       [--bounded-push] [--slow-shard <i>] [--slow-us <us>]
//                       [--dataplane-offload]
//
// With --pcap the monitor replays a recorded capture through the
// analyzer using the zero-copy batched ingest path. Each batch is
// screened by the capture front end (capture/batch_filter) first —
// the software stand-in for the paper's Tofino filter — unless
// --no-frontend; results are bit-identical either way.
// --frontend-stats prints the filter's selectivity counters with the
// day summary. The front end's sketch tier summarizes the rejected
// background flows within --flow-memory-budget bytes (K/M/G suffixes,
// default 1M; --no-sketch disables it); --sketch-stats prints the
// absorbed volume and top background heavy hitters. --dataplane-offload
// enables the data-plane metric offload (capture/offload.h): the front
// end's per-shard histogram registers absorb the jitter/RTT metric work
// for covered server media flows, surfaced via --frontend-stats and the
// epoch records' offload section in daemon mode.
//
// --daemon runs the continuous-operation service loop
// (analysis/daemon.h): epoch rotation, atomic snapshot + per-epoch
// report files, SIGHUP config reload, SIGTERM/SIGINT graceful drain,
// and a watchdog that reopens a stalled source. With --report-dir the
// daemon also appends an indexed metric journal
// (journal-<site>-NNNNNNNNNNNN.zpmj) and maintains a MANIFEST listing
// every segment's path and epoch time span — the inputs zpm_query
// answers time-windowed CDF queries from (--no-journal opts out;
// --site labels the segments for multi-site merges). The overload governor
// (src/overload, docs/ROBUSTNESS.md §5) defaults on for --live and off
// for --replay; --overload / --no-overload override, --overload-inject
// replaces the real pressure signals with a deterministic schedule
// ("begin-end:pressure,..." over the global packet index; implies
// --overload), and --overload-high/--overload-low retune the EWMA
// watermarks. --bounded-push makes the dispatch producer shed instead
// of blocking on a full shard ring (always on under --live);
// --slow-shard/--slow-us inject a deterministic slow consumer for
// stress tests. --replay drives it
// from a recorded trace through net::ReplayLiveSource (deterministic,
// no privileges needed — loop with --loops 0 and pace with
// --pace-pps for soak runs); --live opens a real interface
// (AF_PACKET TPACKET_V3, CAP_NET_RAW required). --make-trace writes a
// simulated campus day to a pcap for the replay modes.
//
// Exit codes: 0 ok, 1 bad input/fatal source error, 2 usage,
// 4 interrupted (SIGINT drain in the non-daemon modes: the partial
// capture is still analyzed and the report flushed before exiting).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/daemon.h"
#include "analysis/tables.h"
#include "capture/batch_filter.h"
#include "capture/filter.h"
#include "core/analyzer.h"
#include "net/live_source.h"
#include "net/pcap.h"
#include "net/trace_source.h"
#include "overload/governor.h"
#include "sim/background.h"
#include "sim/campus.h"
#include "util/strings.h"

using namespace zpm;

namespace {

/// SIGINT in the non-daemon modes: drain what's in flight, flush the
/// report, exit 4. The handler only sets the flag.
volatile std::sig_atomic_t g_interrupted = 0;
void on_interrupt(int) { g_interrupted = 1; }

void print_summary(core::Analyzer& analyzer, std::uint64_t processed) {
  const auto& c = analyzer.counters();
  std::printf("\nday summary: %llu packets processed, %llu Zoom (%s), "
              "%zu meetings, %zu streams\n",
              static_cast<unsigned long long>(processed),
              static_cast<unsigned long long>(c.zoom_packets),
              util::human_bytes(c.zoom_bytes).c_str(),
              analyzer.meetings().meeting_count(), analyzer.streams().size());
  // Accounting-only counters are not loss: the summary line is the same
  // with the front end / tier on or off (--frontend-stats and
  // --sketch-stats report the details).
  const auto& h = analyzer.health();
  if (analysis::health_all_clear(h)) {
    std::printf("analyzer health: all clear\n");
  } else {
    std::printf("analyzer health: %llu records dropped "
                "(%llu L2-L4, %llu Zoom-layer, %llu quarantined)\n",
                static_cast<unsigned long long>(h.dropped_records()),
                static_cast<unsigned long long>(h.truncated_l2 + h.bad_l3 + h.bad_l4),
                static_cast<unsigned long long>(h.bad_sfu_encap + h.bad_media_encap +
                                                h.malformed_rtp + h.malformed_rtcp +
                                                h.malformed_stun),
                static_cast<unsigned long long>(h.quarantined_packets));
  }
}

/// "4M", "256K", "1048576" → bytes (binary suffixes); 0 on a malformed
/// spec, which the caller treats as a usage error.
std::size_t parse_byte_size(const char* spec) {
  char* end = nullptr;
  const auto value = std::strtoull(spec, &end, 10);
  if (end == spec) return 0;
  std::size_t scale = 1;
  switch (*end) {
    case '\0': break;
    case 'k': case 'K': scale = std::size_t{1} << 10; ++end; break;
    case 'm': case 'M': scale = std::size_t{1} << 20; ++end; break;
    case 'g': case 'G': scale = std::size_t{1} << 30; ++end; break;
    default: return 0;
  }
  if (*end != '\0' || value > (std::size_t{1} << 40) / scale) return 0;
  return static_cast<std::size_t>(value) * scale;
}

int monitor_pcap(const char* path, bool frontend, bool frontend_stats,
                 std::size_t sketch_budget, bool sketch_stats,
                 bool dataplane_offload) {
  net::TraceSource source(path);
  if (!source.ok()) {
    std::fprintf(stderr, "error: cannot open %s (%s)\n", path,
                 source.error().c_str());
    return 1;
  }
  core::AnalyzerConfig an_cfg;
  an_cfg.keep_frames = false;
  core::Analyzer analyzer(an_cfg);
  std::optional<capture::BatchFilter> filter;
  if (frontend) {
    capture::BatchFilterConfig fe_cfg;
    fe_cfg.server_db = an_cfg.server_db;
    fe_cfg.shards = 1;
    fe_cfg.flow_memory_budget = sketch_budget;
    fe_cfg.dataplane_offload = dataplane_offload;
    filter.emplace(std::move(fe_cfg));
  }

  std::printf("campus monitor: replaying %s (%s ingest, front end %s)\n", path,
              source.mapped() ? "mapped zero-copy" : "streaming",
              filter ? "on" : "off");
  std::signal(SIGINT, on_interrupt);
  constexpr std::size_t kBatch = 1024;
  std::vector<net::RawPacketView> batch;
  batch.reserve(kBatch);
  capture::BatchVerdicts verdicts;
  while (!g_interrupted && source.next_batch(batch, kBatch) > 0) {
    if (filter) {
      filter->classify(batch, verdicts);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (verdicts.verdicts[i] == capture::Verdict::Reject)
          analyzer.account_frontend_rejected(batch[i]);
        else
          analyzer.offer(batch[i],
                         verdicts.verdicts[i] == capture::Verdict::Admit &&
                             (verdicts.flags[i] & capture::kFlagOffloadCovered) != 0);
      }
    } else {
      for (const auto& view : batch) analyzer.offer(view);
    }
  }
  std::signal(SIGINT, SIG_DFL);
  if (g_interrupted)
    std::fprintf(stderr, "\ninterrupted: flushing report over the %llu "
                 "packets analyzed so far\n",
                 static_cast<unsigned long long>(source.packets_read()));
  if (!source.ok())
    std::fprintf(stderr, "warning: capture ended with error: %s\n",
                 source.error().c_str());
  analyzer.finish();
  print_summary(analyzer, source.packets_read());
  if (frontend_stats && filter) {
    std::printf("capture front end (%s probe, %zu flows, %zu candidates):\n",
                filter->simd_active() ? "SWAR/SSE2" : "scalar",
                filter->flow_count(), filter->candidate_endpoint_count());
    for (const auto& row : analysis::frontend_rows(filter->stats()))
      std::printf("  %-24s %12s  %.*s\n", std::string(row.category).c_str(),
                  util::with_commas(row.count).c_str(),
                  static_cast<int>(row.description.size()), row.description.data());
  }
  if (sketch_stats) {
    if (!filter || !filter->sketch_enabled()) {
      std::printf("sketch flow tier not active (%s)\n",
                  filter ? "--no-sketch" : "--no-frontend");
    } else {
      const auto report = filter->sketch_report(5);
      const auto& ts = report.stats;
      std::printf("sketch flow tier (%s budget): %s background packets (%s), "
                  "%llu promotions, %llu evictions\n",
                  util::human_bytes(sketch_budget).c_str(),
                  util::with_commas(ts.absorbed_packets).c_str(),
                  util::human_bytes(ts.absorbed_bytes).c_str(),
                  static_cast<unsigned long long>(ts.promotions),
                  static_cast<unsigned long long>(ts.evictions));
      for (const auto& h : report.heavy_hitters)
        std::printf("  %-44s %10s %10s pkts\n", h.flow.to_string().c_str(),
                    util::human_bytes(h.bytes).c_str(),
                    util::with_commas(h.packets).c_str());
    }
  }
  return g_interrupted ? 4 : 0;
}

/// Writes a simulated campus monitor stream to a pcap — the input for
/// the --daemon --replay modes and the CI soak run.
int make_trace(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: campus_monitor --make-trace <out.pcap> "
                 "[--minutes <m>] [--meetings <n>] [--background <ratio>] "
                 "[--seed <n>] [--burst <period-s>] [--burst-flows <n>]\n");
    return 2;
  }
  const char* out_path = argv[2];
  double minutes = 10.0;
  double meetings = 6.0;
  double background = 1.0;
  std::uint64_t seed = 42;
  double burst_period_s = 0.0;
  std::size_t burst_flows = 20'000;
  for (int i = 3; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--minutes") && i + 1 < argc) {
      minutes = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--meetings") && i + 1 < argc) {
      meetings = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--background") && i + 1 < argc) {
      background = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--burst") && i + 1 < argc) {
      burst_period_s = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--burst-flows") && i + 1 < argc) {
      burst_flows = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (minutes <= 0) {
    std::fprintf(stderr, "--minutes wants a positive duration\n");
    return 2;
  }

  sim::CampusConfig campus_cfg;
  campus_cfg.seed = seed;
  campus_cfg.day_start = util::Timestamp::from_seconds(10 * 3600);
  campus_cfg.duration = util::Duration::seconds(minutes * 60.0);
  campus_cfg.meetings_per_peak_hour = meetings;
  campus_cfg.background_ratio = background;
  sim::CampusSimulation campus(campus_cfg);

  // --burst overlays a square-wave background load (sim::BackgroundTraffic
  // duty-cycle mode) on the campus day: when a paced replay of the trace
  // hits a high phase, the daemon's rings actually fill — the overload
  // governor's exercise input.
  std::optional<sim::BackgroundTraffic> burst;
  if (burst_period_s > 0) {
    sim::BackgroundConfig bg;
    bg.seed = seed + 1;
    bg.flows = burst_flows > 0 ? burst_flows : 1;
    bg.start = campus_cfg.day_start;
    bg.burst_period = util::Duration::seconds(burst_period_s);
    bg.burst_high_pps = 20'000;
    bg.burst_low_pps = 2'000;
    const double avg_pps = bg.burst_duty * bg.burst_high_pps +
                           (1.0 - bg.burst_duty) * bg.burst_low_pps;
    bg.packets = static_cast<std::size_t>(avg_pps * minutes * 60.0);
    if (bg.packets < bg.flows) bg.packets = bg.flows;
    if (bg.packets > 5'000'000) bg.packets = 5'000'000;  // keep traces sane
    burst.emplace(bg);
  }

  net::PcapWriter writer(out_path);
  if (!writer.ok()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  if (!burst) {
    while (auto pkt = campus.next_packet()) writer.write(*pkt);
  } else {
    // Two-pointer timestamp merge: both generators emit in timestamp
    // order, so the merged trace stays monotonic.
    std::vector<net::RawPacket> bg_batch;
    std::size_t bg_i = 0;
    const auto bg_refill = [&]() {
      if (bg_i < bg_batch.size()) return true;
      bg_batch.clear();
      bg_i = 0;
      return burst->next_batch(4096, bg_batch) > 0;
    };
    auto cam = campus.next_packet();
    bool bg_ok = bg_refill();
    while (cam || bg_ok) {
      if (!bg_ok || (cam && cam->ts.us() <= bg_batch[bg_i].ts.us())) {
        writer.write(*cam);
        cam = campus.next_packet();
      } else {
        writer.write(bg_batch[bg_i++]);
        bg_ok = bg_refill();
      }
    }
  }
  if (!writer.ok()) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return 1;
  }
  std::printf("wrote %llu packets (%.1f simulated minutes%s) to %s\n",
              static_cast<unsigned long long>(writer.packets_written()),
              minutes,
              burst ? ", bursty background overlay" : "", out_path);
  return 0;
}

/// The continuous daemon: parses its flag block, builds the source,
/// and hands the loop to analysis::MonitorDaemon.
int run_daemon(int argc, char** argv) {
  std::string replay_path;
  std::string live_interface;
  analysis::DaemonConfig cfg;
  cfg.engine.analyzer.keep_frames = false;
  cfg.engine.limits.max_packets = 1'000'000;
  cfg.engine.limits.max_span = util::Duration::seconds(60.0);
  net::ReplayLiveSourceConfig replay_cfg;
  std::optional<bool> overload_flag;  // unset = mode default
  bool journal_flag_set = false;      // --no-journal given

  for (int i = 2; i < argc; ++i) {
    const auto want_value = [&](const char* flag) {
      if (i + 1 < argc) return true;
      std::fprintf(stderr, "%s wants a value\n", flag);
      return false;
    };
    if (!std::strcmp(argv[i], "--replay")) {
      if (!want_value("--replay")) return 2;
      replay_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--live")) {
      if (!want_value("--live")) return 2;
      live_interface = argv[++i];
    } else if (!std::strcmp(argv[i], "--loops")) {
      if (!want_value("--loops")) return 2;
      replay_cfg.loops = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--pace-pps")) {
      if (!want_value("--pace-pps")) return 2;
      replay_cfg.pace_pps = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--stall-after")) {
      if (!want_value("--stall-after")) return 2;
      replay_cfg.stall_after_packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--epoch-packets")) {
      if (!want_value("--epoch-packets")) return 2;
      cfg.engine.limits.max_packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--epoch-seconds")) {
      if (!want_value("--epoch-seconds")) return 2;
      cfg.engine.limits.max_span = util::Duration::seconds(std::atof(argv[++i]));
    } else if (!std::strcmp(argv[i], "--snapshot")) {
      if (!want_value("--snapshot")) return 2;
      cfg.snapshot_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--report-dir")) {
      if (!want_value("--report-dir")) return 2;
      cfg.report_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--site")) {
      if (!want_value("--site")) return 2;
      cfg.site = argv[++i];
    } else if (!std::strcmp(argv[i], "--no-journal")) {
      cfg.engine.collect_journal = false;
      journal_flag_set = true;
    } else if (!std::strcmp(argv[i], "--config")) {
      if (!want_value("--config")) return 2;
      cfg.config_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--watchdog-seconds")) {
      if (!want_value("--watchdog-seconds")) return 2;
      cfg.watchdog = util::Duration::seconds(std::atof(argv[++i]));
    } else if (!std::strcmp(argv[i], "--threads")) {
      if (!want_value("--threads")) return 2;
      cfg.engine.shards = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (cfg.engine.shards == 0) cfg.engine.shards = 1;
    } else if (!std::strcmp(argv[i], "--halt-after-epochs")) {
      if (!want_value("--halt-after-epochs")) return 2;
      cfg.halt_after_epochs = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--no-frontend")) {
      cfg.engine.frontend = false;
    } else if (!std::strcmp(argv[i], "--flow-memory-budget")) {
      if (!want_value("--flow-memory-budget")) return 2;
      cfg.engine.flow_memory_budget = parse_byte_size(argv[++i]);
      if (cfg.engine.flow_memory_budget == 0) {
        std::fprintf(stderr, "--flow-memory-budget wants a byte count like "
                     "4M or 262144\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--quiet")) {
      cfg.verbose = false;
    } else if (!std::strcmp(argv[i], "--overload")) {
      overload_flag = true;
    } else if (!std::strcmp(argv[i], "--no-overload")) {
      overload_flag = false;
    } else if (!std::strcmp(argv[i], "--overload-window")) {
      if (!want_value("--overload-window")) return 2;
      cfg.engine.overload.window_packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--overload-inject")) {
      if (!want_value("--overload-inject")) return 2;
      cfg.engine.overload.inject = argv[++i];
      overload_flag = true;  // an injection schedule implies the governor
    } else if (!std::strcmp(argv[i], "--overload-high")) {
      if (!want_value("--overload-high")) return 2;
      cfg.engine.overload.governor.high_watermark = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--overload-low")) {
      if (!want_value("--overload-low")) return 2;
      cfg.engine.overload.governor.low_watermark = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--bounded-push")) {
      cfg.engine.bounded_dispatch = true;
    } else if (!std::strcmp(argv[i], "--slow-shard")) {
      if (!want_value("--slow-shard")) return 2;
      cfg.engine.fault_slow_shard =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "--slow-us")) {
      if (!want_value("--slow-us")) return 2;
      cfg.engine.fault_slow_us =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "--dataplane-offload")) {
      cfg.engine.dataplane_offload = true;
    } else {
      std::fprintf(stderr, "unknown daemon option %s\n", argv[i]);
      return 2;
    }
  }
  if (replay_path.empty() == live_interface.empty()) {
    std::fprintf(stderr,
                 "--daemon wants exactly one of --replay <trace> or "
                 "--live <iface>\n");
    return 2;
  }
  if (!cfg.engine.limits.any_enabled()) {
    std::fprintf(stderr, "daemon needs at least one epoch limit "
                 "(--epoch-packets or --epoch-seconds)\n");
    return 2;
  }
  if (!cfg.engine.overload.inject.empty()) {
    overload::PressureSchedule probe;
    if (!probe.parse(cfg.engine.overload.inject)) {
      std::fprintf(stderr, "--overload-inject wants "
                   "\"begin-end:pressure[,...]\" over packet indices\n");
      return 2;
    }
  }
  // Overload default: on for live capture (the mode that can actually
  // fall behind the kernel), off for lossless replay. Live mode also
  // switches the dispatch producer from blocking push to bounded
  // try_push with shed-on-timeout — a stalled shard must never wedge
  // the poll loop that keeps the kernel ring drained.
  cfg.engine.overload.enabled = overload_flag.value_or(!live_interface.empty());
  if (!live_interface.empty()) cfg.engine.bounded_dispatch = true;
  // Journal default: on whenever a report directory exists — the
  // directory then carries epoch files, journal segments and a MANIFEST
  // for zpm_query. --no-journal opts out.
  if (!journal_flag_set) cfg.engine.collect_journal = !cfg.report_dir.empty();
  if (cfg.engine.fault_slow_shard != SIZE_MAX && cfg.engine.fault_slow_us == 0)
    cfg.engine.fault_slow_us = 100;

  analysis::MonitorDaemon daemon(cfg);
  analysis::MonitorDaemon::install_signal_handlers(&daemon);
  int rc;
  if (!replay_path.empty()) {
    replay_cfg.path = replay_path;
    net::ReplayLiveSource source(replay_cfg);
    if (!source.ok()) {
      std::fprintf(stderr, "error: cannot load %s (%s)\n",
                   replay_path.c_str(), source.error().c_str());
      analysis::MonitorDaemon::install_signal_handlers(nullptr);
      return 1;
    }
    std::fprintf(stderr, "zpm-daemon: replaying %s (%llu packets/loop, "
                 "loops %llu, %.0f pps)\n",
                 replay_path.c_str(),
                 static_cast<unsigned long long>(source.trace_packets()),
                 static_cast<unsigned long long>(replay_cfg.loops),
                 replay_cfg.pace_pps);
    rc = daemon.run(source);
  } else {
    net::LiveSourceConfig live_cfg;
    live_cfg.interface = live_interface;
    net::LiveSource source(live_cfg);
    if (!source.ok()) {
      std::fprintf(stderr, "error: cannot open %s (%s)\n",
                   live_interface.c_str(), source.error().c_str());
      analysis::MonitorDaemon::install_signal_handlers(nullptr);
      return 1;
    }
    std::fprintf(stderr, "zpm-daemon: capturing on %s (%.*s backend)\n",
                 live_interface.c_str(),
                 static_cast<int>(source.backend().size()),
                 source.backend().data());
    rc = daemon.run(source);
    const auto stats = source.stats();
    std::fprintf(stderr,
                 "zpm-daemon: kernel capture: %llu packets seen, %llu "
                 "dropped\n",
                 static_cast<unsigned long long>(stats.kernel_packets),
                 static_cast<unsigned long long>(stats.kernel_drops));
  }
  analysis::MonitorDaemon::install_signal_handlers(nullptr);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--make-trace"))
    return make_trace(argc, argv);
  if (argc > 1 && !std::strcmp(argv[1], "--daemon"))
    return run_daemon(argc, argv);

  if (argc > 2 && !std::strcmp(argv[1], "--pcap")) {
    bool frontend = true;
    bool frontend_stats = false;
    std::size_t sketch_budget = std::size_t{1} << 20;
    bool sketch = true;
    bool sketch_stats = false;
    bool dataplane_offload = false;
    for (int i = 3; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--no-frontend")) {
        frontend = false;
      } else if (!std::strcmp(argv[i], "--frontend-stats")) {
        frontend_stats = true;
      } else if (!std::strcmp(argv[i], "--flow-memory-budget") && i + 1 < argc) {
        sketch_budget = parse_byte_size(argv[++i]);
        if (sketch_budget == 0) {
          std::fprintf(stderr, "--flow-memory-budget wants a byte count like "
                       "4M or 262144 (use --no-sketch to disable)\n");
          return 2;
        }
      } else if (!std::strcmp(argv[i], "--no-sketch")) {
        sketch = false;
      } else if (!std::strcmp(argv[i], "--sketch-stats")) {
        sketch_stats = true;
      } else if (!std::strcmp(argv[i], "--dataplane-offload")) {
        dataplane_offload = true;
      } else {
        std::fprintf(stderr, "unknown option %s\n", argv[i]);
        return 2;
      }
    }
    return monitor_pcap(argv[2], frontend, frontend_stats,
                        sketch ? sketch_budget : 0, sketch_stats,
                        dataplane_offload);
  }

  double hours = argc > 1 ? std::atof(argv[1]) : 1.0;
  double meetings = argc > 2 ? std::atof(argv[2]) : 6.0;

  sim::CampusConfig campus_cfg;
  campus_cfg.seed = 42;
  campus_cfg.day_start = util::Timestamp::from_seconds(10 * 3600);
  campus_cfg.duration = util::Duration::seconds(hours * 3600.0);
  campus_cfg.meetings_per_peak_hour = meetings;
  campus_cfg.background_ratio = 1.0;
  sim::CampusSimulation campus(campus_cfg);

  capture::CaptureConfig cap_cfg;
  cap_cfg.campus_subnets = {campus_cfg.campus_subnet};
  cap_cfg.anonymize = false;  // live monitoring keeps addresses
  capture::CaptureFilter filter(cap_cfg);

  core::AnalyzerConfig an_cfg;
  an_cfg.keep_frames = false;
  core::Analyzer analyzer(an_cfg);

  std::printf("campus monitor: %.1f h, ~%.0f meetings/peak hour\n\n", hours, meetings);
  std::printf("%-6s %10s %10s %9s %9s %9s %8s\n", "time", "pkts/min", "zoom/min",
              "meetings", "streams", "media", "rtt[ms]");
  std::printf("----------------------------------------------------------------------\n");

  std::signal(SIGINT, on_interrupt);
  std::int64_t interval_us = 5 * 60 * 1'000'000ll;  // 5-minute lines
  std::int64_t next_report = 0;
  std::uint64_t interval_pkts = 0, interval_zoom = 0;
  std::size_t last_rtt_count = 0;
  while (auto pkt = campus.next_packet()) {
    if (g_interrupted) break;
    if (next_report == 0) next_report = pkt->ts.us() + interval_us;
    ++interval_pkts;
    auto kept = filter.process(*pkt);
    if (kept) {
      ++interval_zoom;
      analyzer.offer(*kept);
    }
    if (pkt->ts.us() >= next_report) {
      // RTT over the samples that arrived this interval.
      const auto& rtts = analyzer.sfu_rtt_samples();
      double rtt_sum = 0;
      std::size_t rtt_n = rtts.size() - last_rtt_count;
      for (std::size_t i = last_rtt_count; i < rtts.size(); ++i)
        rtt_sum += rtts[i].rtt.ms();
      last_rtt_count = rtts.size();

      std::size_t active_meetings = 0;
      for (const auto* m : analyzer.meetings().meetings())
        if (pkt->ts - m->last_seen < util::Duration::seconds(30.0)) ++active_meetings;

      std::printf("%-6s %10llu %10llu %9zu %9zu %9llu %8s\n",
                  util::clock_label(static_cast<std::int64_t>(pkt->ts.sec())).c_str(),
                  static_cast<unsigned long long>(interval_pkts / 5),
                  static_cast<unsigned long long>(interval_zoom / 5), active_meetings,
                  analyzer.streams().size(),
                  static_cast<unsigned long long>(analyzer.streams().media_count()),
                  rtt_n ? util::fixed(rtt_sum / static_cast<double>(rtt_n), 1).c_str()
                        : "-");
      interval_pkts = interval_zoom = 0;
      next_report += interval_us;
    }
  }
  std::signal(SIGINT, SIG_DFL);
  if (g_interrupted)
    std::fprintf(stderr, "\ninterrupted: flushing report over the simulated "
                 "day so far\n");
  analyzer.finish();
  print_summary(analyzer, filter.counters().processed);
  return g_interrupted ? 4 : 0;
}
