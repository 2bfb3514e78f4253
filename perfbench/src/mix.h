// Shared by pb_query and pb_trace: the layout of a report directory's
// journals, the seeded query mix asked of it, and the property checks
// its answers must satisfy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "query/journal.h"
#include "query/query.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {

using zpm::query::QueryGroup;
using zpm::query::QueryGroupBy;
using zpm::query::QueryMetric;
using zpm::query::QueryRequest;
using zpm::query::QueryResult;

/// Queries in the mix (48 cycles of make_mix's 24), so its p99 has 11
/// samples beyond it.
inline constexpr std::size_t kMixSize = 1152;

/// One epoch of one site, from its shard-0 record.
struct EpochSpan {
  std::uint64_t seq = 0;
  std::uint64_t first_packet = 0;
  std::uint64_t packets = 0;
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
};

struct SiteLayout {
  std::string site;
  std::uint32_t shard_count = 1;
  std::uint64_t records = 0;
  std::vector<EpochSpan> epochs;  // by seq
};

/// What the mix and the checks need to know about a report directory:
/// per-site epoch spans and every meeting key the journals hold.
struct Layout {
  zpm::query::Manifest manifest;
  std::vector<SiteLayout> sites;  // manifest order of first appearance
  std::vector<std::uint64_t> meeting_keys;  // sorted, distinct
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
  std::uint64_t manifest_epochs = 0;
};

/// Reads the MANIFEST and decodes every journal record once (untimed).
inline bool read_layout(const std::string& dir, Layout& out, std::string& error) {
  if (!zpm::query::load_manifest(dir, out.manifest, &error)) return false;
  if (out.manifest.entries.empty()) {
    error = "MANIFEST lists no journals";
    return false;
  }
  std::set<std::uint64_t> keys;
  bool any = false;
  for (const auto& entry : out.manifest.entries) {
    out.manifest_epochs += entry.epochs;
    zpm::query::JournalReader reader;
    if (!reader.open(dir + "/" + entry.path, &error)) return false;
    if (!reader.scan_stats().used_index) {
      error = entry.path + ": journal has no footer index";
      return false;
    }
    auto it = std::find_if(out.sites.begin(), out.sites.end(),
                           [&](const SiteLayout& s) { return s.site == entry.site; });
    if (it == out.sites.end()) {
      out.sites.push_back(SiteLayout{entry.site, reader.shard_count(), 0, {}});
      it = out.sites.end() - 1;
    }
    zpm::query::EpochSlice slice;
    for (std::size_t i = 0; i < reader.records().size(); ++i) {
      if (!reader.read(i, slice)) {
        error = entry.path + ": corrupt record " + std::to_string(i);
        return false;
      }
      ++it->records;
      for (const auto& m : slice.meetings) keys.insert(m.meeting_key);
      if (slice.shard != 0) continue;
      it->epochs.push_back(EpochSpan{slice.seq, slice.first_packet, slice.packets,
                                     slice.first_us, slice.last_us});
      if (!any || slice.first_us < out.first_us) out.first_us = slice.first_us;
      if (!any || slice.last_us > out.last_us) out.last_us = slice.last_us;
      any = true;
    }
  }
  for (auto& s : out.sites)
    std::sort(s.epochs.begin(), s.epochs.end(),
              [](const EpochSpan& a, const EpochSpan& b) { return a.seq < b.seq; });
  out.meeting_keys.assign(keys.begin(), keys.end());
  if (!any) {
    error = "journals hold no epochs";
    return false;
  }
  return true;
}

/// The seeded query mix, in 48 cycles of 24 queries. Query q asks for
/// metric (q / 24) % 4, group (q / 96) % 3 (all, meeting, site) and,
/// when (q / 288) % 2 == 1, one random meeting key, over a window picked
/// by its place in the cycle, k = q % 24:
///   k < 18  a site's latest epoch (the sites in turn), as a dashboard
///           polling a monitor would: 75% of the mix, so the median lies
///           inside this kind of query;
///   k < 23  ~10% of the span at a random start;
///   k = 23  the full span, never filtered: the 48 heaviest queries, so
///           the p99 (between the 11th and 12th slowest) lies inside
///           this kind too.
/// A quantile at the edge between two kinds moves with every change in
/// their shares or costs; earlier mixes put the median between the
/// one-epoch and the 10% windows, or between a trace's small first
/// epochs and its larger later ones, and the p99 in the tail of a kind
/// that made up a sixth of the mix, where host jitter set it.
inline std::vector<QueryRequest> make_mix(const Layout& layout, std::uint64_t seed) {
  zpm::util::Rng rng(seed);
  std::vector<QueryRequest> mix;
  mix.reserve(kMixSize);
  const std::int64_t span = layout.last_us - layout.first_us;
  for (std::size_t q = 0; q < kMixSize; ++q) {
    QueryRequest r;
    const std::size_t k = q % 24;
    if (k < 18) {
      const auto& site = layout.sites[(q / 24 * 18 + k) % layout.sites.size()];
      const std::size_t e = site.epochs.size() - 1;
      r.from_us = site.epochs[e].first_us;
      r.to_us = site.epochs[e].last_us;
      // Packets sharing a microsecond (an SFU's copies of one packet)
      // can straddle an epoch boundary; the window then starts after
      // the shared microsecond so that it reads one epoch, not two.
      if (e > 0 && site.epochs[e - 1].last_us >= r.from_us)
        r.from_us = site.epochs[e - 1].last_us + 1;
    } else if (k < 23) {
      const std::int64_t width = span / 10;
      r.from_us = layout.first_us + rng.uniform_int(0, span - width);
      r.to_us = r.from_us + width;
    } else {
      r.from_us = layout.first_us;
      r.to_us = layout.last_us;
    }
    r.metric = static_cast<QueryMetric>((q / 24) % 4);
    r.group = static_cast<QueryGroupBy>((q / 96) % 3);
    if (k < 23 && (q / 288) % 2 == 1 && !layout.meeting_keys.empty()) {
      r.has_meeting = true;
      r.meeting_key = layout.meeting_keys[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(layout.meeting_keys.size()) - 1))];
    }
    mix.push_back(r);
  }
  return mix;
}

/// The encoded answer (request, epochs, groups; no provenance).
inline std::vector<std::uint8_t> encode(const QueryResult& result) {
  zpm::util::ByteWriter w;
  zpm::query::encode_query_result(result, w);
  return w.take();
}

/// FNV-1a over every encoded answer of a run, so two runs (or a timed
/// and a checked run) can be shown to give the same answers.
inline std::uint64_t digest(const std::vector<QueryResult>& results) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& r : results)
    for (const auto b : encode(r)) h = (h ^ b) * 1099511628211ull;
  return h;
}

/// A group's fields that add up when its rows are split into parts
/// (by meeting, by site, or by disjoint epochs).
struct Additive {
  zpm::capture::OffloadHistogram hist;
  std::uint64_t stream_rows = 0, meeting_rows = 0, media_packets = 0,
                media_payload_bytes = 0, received = 0, unique_packets = 0,
                duplicates = 0, reordered = 0, gap_packets = 0,
                retransmissions = 0, frames = 0, talk_seconds = 0;
  void add(const QueryGroup& g) {
    hist.merge(g.hist);
    stream_rows += g.stream_rows;
    meeting_rows += g.meeting_rows;
    media_packets += g.media_packets;
    media_payload_bytes += g.media_payload_bytes;
    received += g.received;
    unique_packets += g.unique_packets;
    duplicates += g.duplicates;
    reordered += g.reordered;
    gap_packets += g.gap_packets;
    retransmissions += g.retransmissions;
    frames += g.frames;
    talk_seconds += g.talk_seconds;
  }
  bool operator==(const Additive&) const = default;
};

inline Additive sum_groups(const QueryResult& r) {
  Additive a;
  for (const auto& g : r.groups) a.add(g);
  return a;
}

/// Answers a request; `run` is the caller's query entry point.
template <typename Run>
QueryResult ask(Run& run, const QueryRequest& request) {
  QueryResult result;
  run(request, result);
  return result;
}

/// Property checks on a report directory's answers. `run(request,
/// result)` answers one query; `site_packets` maps each site to the
/// packets its trace holds. Returns the failures, one line each.
template <typename Run>
std::vector<std::string> check_answers(const Layout& layout,
                                       const std::vector<QueryRequest>& mix,
                                       const std::vector<QueryResult>& answers,
                                       const std::map<std::string, std::uint64_t>& site_packets,
                                       Run& run) {
  std::vector<std::string> fails;
  const auto fail = [&](std::string what) {
    if (fails.size() < 20) fails.push_back(std::move(what));
  };

  // The journals' epochs cover every trace packet exactly once, and
  // every epoch has one record per shard.
  for (const auto& site : layout.sites) {
    std::uint64_t next = 0;
    for (const auto& e : site.epochs) {
      if (e.first_packet != next) fail(site.site + ": epoch " + std::to_string(e.seq) +
                                       " starts at packet " +
                                       std::to_string(e.first_packet) +
                                       ", expected " + std::to_string(next));
      next = e.first_packet + e.packets;
    }
    const auto it = site_packets.find(site.site);
    if (it == site_packets.end() || it->second != next)
      fail(site.site + ": journals cover " + std::to_string(next) +
           " packets, the trace holds " +
           (it == site_packets.end() ? std::string("none") : std::to_string(it->second)));
    if (site.records != site.epochs.size() * site.shard_count)
      fail(site.site + ": " + std::to_string(site.records) + " records for " +
           std::to_string(site.epochs.size()) + " epochs x " +
           std::to_string(site.shard_count) + " shards");
  }
  if (layout.sites.size() != site_packets.size())
    fail("MANIFEST names " + std::to_string(layout.sites.size()) + " sites, expected " +
         std::to_string(site_packets.size()));

  // Grouped answers add up to the group=all answer of the same request.
  for (std::size_t q = 0; q < mix.size(); ++q) {
    const auto& r = answers[q];
    if (!r.request.has_meeting && r.request.from_us == layout.first_us &&
        r.request.to_us == layout.last_us && r.epochs != layout.manifest_epochs)
      fail("full-span query saw " + std::to_string(r.epochs) + " epochs, MANIFEST lists " +
           std::to_string(layout.manifest_epochs));
    if (mix[q].group == QueryGroupBy::All) {
      if (r.groups.size() > 1) fail("group=all answered " + std::to_string(r.groups.size()) +
                                    " groups");
      continue;
    }
    QueryRequest all = mix[q];
    all.group = QueryGroupBy::All;
    const QueryResult whole = ask(run, all);
    if (whole.epochs != r.epochs || !(sum_groups(r) == sum_groups(whole)))
      fail("groups of '" + zpm::query::format_query_request(mix[q]) +
           "' do not add up to group=all");
    if (mix[q].group == QueryGroupBy::Meeting && !whole.groups.empty()) {
      std::uint64_t meetings = 0;
      for (const auto& g : r.groups) meetings += g.meetings;
      if (meetings != whole.groups[0].meetings)
        fail("per-meeting groups of '" + zpm::query::format_query_request(mix[q]) +
             "' count " + std::to_string(meetings) + " meetings, group=all " +
             std::to_string(whole.groups[0].meetings));
    }
  }

  // Windows that partition one site's span at its epoch boundaries sum
  // to that site's full-span answer, metric by metric.
  for (std::uint32_t s = 0; s < layout.sites.size(); ++s) {
    const auto& epochs = layout.sites[s].epochs;
    std::vector<std::int64_t> cuts;  // window starts: epoch starts after a gap
    cuts.push_back(epochs.front().first_us);
    const std::size_t parts = std::min<std::size_t>(5, epochs.size());
    for (std::size_t p = 1; p < parts; ++p) {
      std::size_t i = p * epochs.size() / parts;
      while (i < epochs.size() && epochs[i].first_us <= epochs[i - 1].last_us) ++i;
      if (i < epochs.size() && epochs[i].first_us > cuts.back())
        cuts.push_back(epochs[i].first_us);
    }
    for (int m = 0; m < 4; ++m) {
      QueryRequest full;
      full.from_us = epochs.front().first_us;
      full.to_us = epochs.back().last_us;
      full.metric = static_cast<QueryMetric>(m);
      full.group = QueryGroupBy::Site;
      const auto pick = [&](const QueryResult& r, Additive& a) {
        for (const auto& g : r.groups)  // keys are per-answer site indices
          if (g.site == layout.sites[s].site) a.add(g);
      };
      Additive whole, parts_sum;
      pick(ask(run, full), whole);
      for (std::size_t c = 0; c < cuts.size(); ++c) {
        QueryRequest w = full;
        w.from_us = cuts[c];
        w.to_us = c + 1 < cuts.size() ? cuts[c + 1] - 1 : full.to_us;
        pick(ask(run, w), parts_sum);
      }
      if (!(whole == parts_sum))
        fail(layout.sites[s].site + ": " + std::to_string(cuts.size()) +
             " windows partitioning the span do not add up to the full-span " +
             std::string(zpm::query::metric_name(full.metric)) + " answer");
    }
  }
  return fails;
}

}  // namespace perfbench
