// pb_gen — writes one seeded campus trace through sim::CampusSimulation
// and a pcap writer, and prints its ground truth as key=value pairs:
//
//   packets=… background=… zoom_server=… zoom_p2p=… meetings=…
//   late_joins=… bytes=… first_us=… last_us=… next_ns=… write_ns=…
//   search_ns=…
//
// zoom_server counts non-background packets with an endpoint in the
// official Zoom server list; zoom_p2p counts the other non-background
// packets (client-to-client media and STUN). next_ns / write_ns are the
// summed times of CampusSimulation::next_packet and PcapWriter::write,
// taken only with --time-calls so the untimed set-up pays no clock reads.
//
// The simulated day starts at 10:00 and lasts 30 minutes, with P2P
// probability 0.45. The trace is its first --seconds seconds; more than
// --max-packets packets in them is an error (exit 1, partial file
// deleted), so the trace's size on disk is bounded whatever the seed
// draws. meetings counts the scheduled meetings with at least one packet
// in the trace, matched by participant address; late_joins counts their
// participants who join in the trace's last second, too late, it
// may be, for a packet that ties them to the rest of their meeting.
//
// The trace's make-up is held steady across seeds: the simulator seed
// is the first of seed*10007 + 0, 1, 2, ... whose schedule starts exactly
// --window-meetings meetings in the trace's seconds, with visible streams
// and stream-seconds by its end (window_load) each within 5% of
// --window-streams and --window-stream-seconds.
// The seed used, the number of schedules tried and the time the search
// took are printed as sim_seed / tries / search_ns.
//
// Usage: pb_gen --out <file.pcap> --seed <n>
//               --meetings <per-peak-hour> --background <ratio>
//               --seconds <s> --max-packets <n>
//               --window-meetings <n> --window-streams <n>
//               --window-stream-seconds <n> [--time-calls]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "net/pcap.h"
#include "sim/campus.h"
#include "zoom/server_db.h"

using namespace zpm;

namespace {

/// What the campus tap sees of the meetings the schedule starts in the
/// first `window` seconds, counting participants who joined by then.
struct WindowLoad {
  std::size_t meetings = 0;
  /// Media streams visible by the window's end: each stream an on-campus
  /// participant sends, the SFU's copy of every other participant's
  /// stream to it, and the direct streams of a meeting gone peer-to-peer.
  std::size_t streams = 0;
  /// The same streams weighted by the seconds of the window they are
  /// visible in, which sets how many epoch records hold them.
  double stream_seconds = 0;
};

WindowLoad window_load(const sim::CampusSimulation& campus, double window_s) {
  const double day0 = campus.config().day_start.sec();
  WindowLoad load;
  for (const auto& m : campus.meeting_configs()) {
    const double start = m.start.sec() - day0;
    if (start >= window_s) continue;
    ++load.meetings;
    const auto joined_at = [&](const sim::ParticipantConfig& p) {
      return start + p.join_after.sec();
    };
    // Streams sent by the participants joined by the window's end, and
    // their seconds in the window counted from `from` on.
    const auto sent = [&](double from, double& seconds) {
      std::size_t n = 0;
      for (const auto& p : m.participants) {
        if (joined_at(p) >= window_s) continue;
        const std::size_t k = std::size_t{p.send_audio} + p.send_video + p.send_screen_share;
        n += k;
        seconds += static_cast<double>(k) * (window_s - std::max(from, joined_at(p)));
      }
      return n;
    };
    bool on_campus = false;
    for (const auto& r : m.participants) {
      if (!r.on_campus || joined_at(r) >= window_s) continue;
      on_campus = true;
      load.streams += sent(joined_at(r), load.stream_seconds);
    }
    if (on_campus && m.p2p_switch_after && start + m.p2p_switch_after->sec() < window_s)
      load.streams += sent(start + m.p2p_switch_after->sec(), load.stream_seconds);
  }
  return load;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int usage() {
  std::fprintf(stderr,
               "usage: pb_gen --out <file.pcap> --seed <n> "
               "--meetings <per-peak-hour> --background <ratio> "
               "--seconds <s> --max-packets <n> "
               "--window-meetings <n> --window-streams <n> "
               "--window-stream-seconds <n> [--time-calls]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  sim::CampusConfig cfg;
  cfg.day_start = util::Timestamp::from_seconds(10 * 3600);
  cfg.duration = util::Duration::seconds(30 * 60);
  cfg.p2p_probability = 0.45;
  std::uint64_t max_packets = 0;
  double window_s = 0, window_streams = 0, window_stream_seconds = 0;
  std::size_t window_meetings = 0;
  bool time_calls = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (!std::strcmp(argv[i], "--time-calls")) {
      time_calls = true;
    } else if (!has_value) {
      return usage();
    } else if (!std::strcmp(argv[i], "--out")) {
      out = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--meetings")) {
      cfg.meetings_per_peak_hour = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--background")) {
      cfg.background_ratio = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      window_s = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--window-meetings")) {
      window_meetings = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "--window-streams")) {
      window_streams = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--window-stream-seconds")) {
      window_stream_seconds = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--max-packets")) {
      max_packets = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  if (out.empty() || max_packets == 0 || window_s <= 0 ||
      window_meetings == 0 || window_streams <= 0 || window_stream_seconds <= 0)
    return usage();

  const std::uint64_t seed = cfg.seed;
  const std::int64_t search_start = now_ns();
  std::uint64_t tries = 0;
  std::optional<sim::CampusSimulation> chosen;
  for (;;) {
    if (tries == 100'000) {
      std::fprintf(stderr, "pb_gen: no schedule matches the window targets\n");
      return 1;
    }
    cfg.seed = seed * 10007 + tries++;
    chosen.emplace(cfg);
    const WindowLoad load = window_load(*chosen, window_s);
    const auto near = [](double value, double target) {
      return std::abs(value - target) <= 0.05 * target;
    };
    if (load.meetings == window_meetings &&
        near(static_cast<double>(load.streams), window_streams) &&
        near(load.stream_seconds, window_stream_seconds))
      break;
  }
  const std::int64_t search_ns = now_ns() - search_start;
  sim::CampusSimulation& campus = *chosen;
  net::PcapWriter writer(out);
  if (!writer.ok()) {
    std::fprintf(stderr, "pb_gen: cannot write %s\n", out.c_str());
    return 1;
  }
  const auto& servers = zoom::ServerDb::official();
  std::unordered_map<std::uint32_t, std::size_t> meeting_of;  // participant ip
  const auto& meetings = campus.meeting_configs();
  for (std::size_t m = 0; m < meetings.size(); ++m)
    for (const auto& p : meetings[m].participants) meeting_of[p.ip.value()] = m;
  std::vector<bool> meeting_seen(meetings.size(), false);
  std::uint64_t packets = 0, background = 0, zoom_server = 0, zoom_p2p = 0;
  std::uint64_t bytes = 0;
  std::int64_t first_us = 0, last_us = 0;
  std::int64_t next_ns = 0, write_ns = 0;
  const util::Timestamp end = cfg.day_start + util::Duration::seconds(window_s);
  for (;;) {
    const std::int64_t t0 = time_calls ? now_ns() : 0;
    auto pkt = campus.next_packet();
    const std::int64_t t1 = time_calls ? now_ns() : 0;
    if (!pkt || pkt->ts >= end) break;  // packets come in time order
    if (++packets > max_packets) {
      std::fprintf(stderr, "pb_gen: more than %llu packets in %g seconds\n",
                   static_cast<unsigned long long>(max_packets), window_s);
      std::remove(out.c_str());
      return 1;
    }
    writer.write(*pkt);
    if (time_calls) {
      next_ns += t1 - t0;
      write_ns += now_ns() - t1;
    }
    bytes += pkt->data.size();
    if (packets == 1) first_us = pkt->ts.us();
    last_us = pkt->ts.us();
    if (campus.last_was_background()) {
      ++background;
      continue;
    }
    const auto view = net::decode_packet(*pkt);
    if (!view) {
      ++zoom_p2p;  // the simulator emits only well-formed frames
      continue;
    }
    if (servers.contains(view->ip.src) || servers.contains(view->ip.dst))
      ++zoom_server;
    else
      ++zoom_p2p;
    for (const auto ip : {view->ip.src, view->ip.dst}) {
      const auto it = meeting_of.find(ip.value());
      if (it != meeting_of.end()) meeting_seen[it->second] = true;
    }
  }
  if (!writer.ok()) {
    std::fprintf(stderr, "pb_gen: write to %s failed\n", out.c_str());
    std::remove(out.c_str());
    return 1;
  }
  std::size_t late_joins = 0;
  const double day0 = cfg.day_start.sec();
  for (std::size_t m = 0; m < meetings.size(); ++m)
    for (const auto& p : meetings[m].participants) {
      const double joined = meetings[m].start.sec() - day0 + p.join_after.sec();
      if (meeting_seen[m] && joined >= window_s - 1.0 && joined < window_s) ++late_joins;
    }
  std::printf("sim_seed=%llu tries=%llu packets=%llu background=%llu zoom_server=%llu zoom_p2p=%llu "
              "meetings=%zu late_joins=%zu bytes=%llu first_us=%lld last_us=%lld next_ns=%lld "
              "write_ns=%lld search_ns=%lld\n",
              static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(tries),
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(background),
              static_cast<unsigned long long>(zoom_server),
              static_cast<unsigned long long>(zoom_p2p),
              static_cast<std::size_t>(
                  std::count(meeting_seen.begin(), meeting_seen.end(), true)),
              late_joins,
              static_cast<unsigned long long>(bytes),
              static_cast<long long>(first_us), static_cast<long long>(last_us),
              static_cast<long long>(next_ns), static_cast<long long>(write_ns),
              static_cast<long long>(search_ns));
  return 0;
}
