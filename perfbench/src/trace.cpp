// pb_trace — the benchmark's traced program. It drives one workload's
// traces through each layer's public functions from this file, the way
// the shipped CLIs compose them, and times every call into a layer:
//
//   offline, serial   net::TraceSource::next_batch → capture::BatchFilter::
//                     classify → core::Analyzer::offer/finish
//   offline, sharded  the same front end → pipeline::ParallelAnalyzer::
//                     offer_batch/finish on 3 shards
//   monitor           net::ReplayLiveSource (load, poll_batch) →
//                     analysis::EpochEngine::offer/flush → per epoch
//                     analysis::save_epoch_report, query::JournalWriter::
//                     append, query::save_manifest (the daemon's loop)
//   re-analysis       each journal epoch again through a fresh
//                     core::Analyzer, then query::build_epoch_slices; its
//                     rows must equal the monitor's journal rows
//   query             query::JournalReader::open + query::run_query over
//                     the seeded query mix (mix.h)
//
// Rounds alternate untraced and traced over the same work until
// --seconds is spent (at least one of each), so the traced total can be
// printed beside the untraced one. Allocation counts come from the
// counting operator new below, switched on only in traced rounds.
//
// Output: key=value per-layer metrics on stdout, the stage table on
// stderr, check failures on stderr; exit 1 when a check failed.
//
// Usage: pb_trace --work-dir <dir> --seconds <s> --shards <n>
//                 --epoch-seconds <s> --query-seed <n>
//                 --site <name>=<pcap>:<packets>:<zoom_server>:<zoom_p2p>:<meetings>:<late_joins>
//                 [--site ...]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "analysis/epoch.h"
#include "analysis/snapshot.h"
#include "capture/batch_filter.h"
#include "core/analyzer.h"
#include "mix.h"
#include "net/live_source.h"
#include "net/trace_source.h"
#include "pipeline/parallel_analyzer.h"

// ---------------------------------------------------------------------------
// Counting allocator (traced rounds only)

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace zpm;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------------------
// Spans

enum Stage : std::size_t {
  kIngest,       // net::TraceSource::next_batch
  kReplayLoad,   // net::ReplayLiveSource construction
  kReplayPoll,   // net::ReplayLiveSource::poll_batch
  kClassify,     // capture::BatchFilter::classify
  kCoreOffer,    // core::Analyzer::offer / account_frontend_rejected / finish
  kPipeOffer,    // pipeline::ParallelAnalyzer::offer_batch
  kPipeFinish,   // pipeline::ParallelAnalyzer::finish
  kEpochOffer,   // analysis::EpochEngine::offer / flush
  kPersist,      // analysis::save_epoch_report + query::save_manifest
  kSliceBuild,   // query::build_epoch_slices
  kAppend,       // query::JournalWriter::open / append / finalize
  kOpen,         // query::JournalReader::open
  kRun,          // query::run_query
  kHarness,      // the benchmark's own work: report dir, query mix
  kStages,
};

constexpr std::array<const char*, kStages> kStageNames = {
    "net.ingest",        "net.replay_load",      "net.replay_poll",
    "capture.classify",  "core.offer",           "pipeline.offer_batch",
    "pipeline.finish",   "analysis.epoch_offer", "analysis.persist",
    "query.slice_build", "query.append",         "query.open",
    "query.run",         "perfbench.harness"};

struct StageTotals {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  // packets, epochs, records: per stage
  std::uint64_t allocs = 0;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times calls into a layer when tracing; a plain call otherwise.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  template <typename F>
  decltype(auto) span(Stage stage, std::uint64_t items, F&& f) {
    if (!on_) return f();
    struct Close {
      Tracer& t;
      Stage s;
      std::uint64_t items;
      std::int64_t t0 = now_ns();
      std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      ~Close() {
        auto& st = t.totals_[s];
        st.ns += now_ns() - t0;
        ++st.calls;
        st.items += items;
        st.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
      }
    } close{*this, stage, items};
    return f();
  }
  /// Times work that belongs to a layer but is not one of its calls
  /// (constructing or destroying its objects): time and allocations
  /// count, calls and items do not.
  template <typename F>
  void time_only(Stage stage, F&& f) {
    if (!on_) return f();
    const std::int64_t t0 = now_ns();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    f();
    totals_[stage].ns += now_ns() - t0;
    totals_[stage].allocs += g_allocs.load(std::memory_order_relaxed) - a0;
  }
  /// Items known only after the call (packets a batch returned).
  void add_items(Stage stage, std::uint64_t items) {
    if (on_) totals_[stage].items += items;
  }

  [[nodiscard]] const std::array<StageTotals, kStages>& totals() const { return totals_; }

 private:
  bool on_;
  std::array<StageTotals, kStages> totals_{};
};

// ---------------------------------------------------------------------------
// Workload

struct Site {
  std::string name;
  std::string pcap;
  std::uint64_t packets = 0;
  std::uint64_t zoom_server = 0;
  std::uint64_t zoom_p2p = 0;
  std::uint64_t meetings = 0;
  std::uint64_t late_joins = 0;
};

/// The analyzer puts a participant into a meeting once a packet ties
/// them together (an SFU's copy of one participant's media to another),
/// so a participant who joined in the trace's last second may show as a
/// meeting of its own: the count may exceed the generator's by that many.
bool meetings_match(std::size_t counted, const Site& site) {
  return counted >= site.meetings && counted <= site.meetings + site.late_joins;
}

std::string meetings_written(const Site& site) {
  return std::to_string(site.meetings) + " in the trace (" + std::to_string(site.late_joins) +
         " participants joined in its last second)";
}

struct Options {
  std::string work_dir;
  double seconds = 0;
  std::size_t shards = 1;
  analysis::EpochLimits limits;  // the daemon's 1M packets; --epoch-seconds
  std::uint64_t query_seed = 0;
  std::vector<Site> sites;
};

constexpr std::size_t kBatch = 1024;
constexpr std::size_t kOfflineShards = 3;

/// What one round measured besides its spans.
struct RoundResult {
  std::int64_t total_ns = 0;
  std::uint64_t packets_offered = 0;
  std::uint64_t queries = 0;
  std::uint64_t epochs = 0;
  std::uint64_t records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journals_opened = 0;
  std::uint64_t records_read = 0;
  std::uint64_t full_parse = 0;
  std::uint64_t sketch_evictions = 0;
  std::uint64_t classified = 0;
  std::uint64_t wait_spins = 0;
  std::uint64_t sharded_packets = 0;
  std::uint64_t answers_digest = 0;
};

class Round {
 public:
  Round(const Options& opt, bool traced, std::vector<std::string>& fails)
      : opt_(opt), tr_(traced), traced_(traced), fails_(fails) {}

  RoundResult run() {
    g_count_allocs.store(traced_, std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    for (const auto& site : opt_.sites) offline_serial(site);
    for (const auto& site : opt_.sites) offline_sharded(site);
    const std::string dir = opt_.work_dir + "/trace-report";
    tr_.time_only(kHarness, [&] {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
    });
    query::Manifest manifest;
    for (const auto& site : opt_.sites) monitor(site, dir, manifest);
    query_pass(dir);
    res_.total_ns = now_ns() - t0;
    g_count_allocs.store(false, std::memory_order_relaxed);
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.path().extension() == ".zpmj") res_.journal_bytes += e.file_size();
    return res_;
  }

  [[nodiscard]] const Tracer& tracer() const { return tr_; }

 private:
  void fail(const std::string& what) {
    if (fails_.size() < 20) fails_.push_back(what);
  }

  /// zpm_analyze's default path: front end with the 1 MiB sketch tier,
  /// then the serial analyzer.
  void offline_serial(const Site& site) {
    std::optional<net::TraceSource> source;
    tr_.time_only(kIngest, [&] { source.emplace(site.pcap); });
    if (!source->ok()) return fail(site.pcap + ": " + source->error());
    core::AnalyzerConfig cfg;
    std::optional<core::Analyzer> analyzer;
    tr_.time_only(kCoreOffer, [&] { analyzer.emplace(cfg); });
    capture::BatchFilterConfig fe;
    fe.server_db = cfg.server_db;
    fe.shards = 1;
    std::optional<capture::BatchFilter> filter;
    tr_.time_only(kClassify, [&] { filter.emplace(std::move(fe)); });
    std::vector<net::RawPacketView> batch;
    batch.reserve(kBatch);
    capture::BatchVerdicts verdicts;
    for (;;) {
      const std::size_t n = tr_.span(kIngest, 0, [&] { return source->next_batch(batch, kBatch); });
      if (n == 0) break;
      tr_.add_items(kIngest, n);
      tr_.span(kClassify, n, [&] { filter->classify(batch, verdicts); });
      tr_.span(kCoreOffer, n, [&] {
        for (std::size_t i = 0; i < n; ++i) {
          if (verdicts.verdicts[i] == capture::Verdict::Reject)
            analyzer->account_frontend_rejected(batch[i]);
          else
            analyzer->offer(batch[i], verdicts.verdicts[i] == capture::Verdict::Admit &&
                                         (verdicts.flags[i] & capture::kFlagOffloadCovered) != 0);
        }
      });
    }
    tr_.span(kCoreOffer, 0, [&] { analyzer->finish(); });
    res_.packets_offered += source->packets_read();
    res_.full_parse += filter->stats().full_parse;
    res_.classified += filter->stats().packets;
    res_.sketch_evictions += filter->sketch_evicted();

    const auto& c = analyzer->counters();
    const std::string at = site.name + " (serial analyzer): ";
    if (c.total_packets != site.packets)
      fail(at + std::to_string(c.total_packets) + " packets, " + std::to_string(site.packets) +
           " written");
    if (c.zoom_packets - c.p2p_udp_packets != site.zoom_server)
      fail(at + std::to_string(c.zoom_packets - c.p2p_udp_packets) +
           " server-side Zoom packets, generator wrote " + std::to_string(site.zoom_server));
    if (c.p2p_udp_packets > site.zoom_p2p)
      fail(at + std::to_string(c.p2p_udp_packets) + " P2P packets, more than the " +
           std::to_string(site.zoom_p2p) + " written");
    if (!meetings_match(analyzer->meetings().meeting_count(), site))
      fail(at + std::to_string(analyzer->meetings().meeting_count()) + " meetings, " +
           meetings_written(site));
    serial_counters_[site.name] = c;
    tr_.time_only(kClassify, [&] { filter.reset(); });
    tr_.time_only(kCoreOffer, [&] { analyzer.reset(); });
    tr_.time_only(kIngest, [&] { source.reset(); });
  }

  /// zpm_analyze --threads 3: the same front end, sharded analyzer.
  void offline_sharded(const Site& site) {
    std::optional<net::TraceSource> source;
    tr_.time_only(kIngest, [&] { source.emplace(site.pcap); });
    if (!source->ok()) return fail(site.pcap + ": " + source->error());
    pipeline::ParallelAnalyzerConfig cfg;
    cfg.shards = kOfflineShards;
    capture::BatchFilterConfig fe;
    fe.server_db = cfg.analyzer.server_db;
    fe.shards = kOfflineShards;
    std::optional<capture::BatchFilter> filter;
    tr_.time_only(kClassify, [&] { filter.emplace(std::move(fe)); });
    std::vector<net::RawPacketView> batch;
    batch.reserve(kBatch);
    capture::BatchVerdicts verdicts;
    const auto lifetime =
        source->mapped() ? pipeline::BatchLifetime::Pinned : pipeline::BatchLifetime::Transient;
    std::optional<pipeline::ParallelAnalyzer> analyzer;
    tr_.time_only(kPipeOffer, [&] { analyzer.emplace(cfg); });
    for (;;) {
      const std::size_t n = tr_.span(kIngest, 0, [&] { return source->next_batch(batch, kBatch); });
      if (n == 0) break;
      tr_.add_items(kIngest, n);
      tr_.span(kClassify, n, [&] { filter->classify(batch, verdicts); });
      tr_.span(kPipeOffer, n, [&] { analyzer->offer_batch(batch, lifetime, verdicts); });
    }
    tr_.span(kPipeFinish, 1, [&] { analyzer->finish(); });
    res_.packets_offered += source->packets_read();
    res_.sharded_packets += source->packets_read();
    res_.wait_spins += analyzer->producer_wait_spins();
    res_.full_parse += filter->stats().full_parse;
    res_.classified += filter->stats().packets;
    res_.sketch_evictions += filter->sketch_evicted();
    const auto it = serial_counters_.find(site.name);
    if (it != serial_counters_.end() && !(analyzer->counters() == it->second))
      fail(site.name + ": 3-shard analyzer counters differ from the serial analyzer's");
    if (!meetings_match(analyzer->meetings().meeting_count(), site))
      fail(site.name + " (3-shard analyzer): " +
           std::to_string(analyzer->meetings().meeting_count()) + " meetings, " +
           meetings_written(site));
    tr_.time_only(kPipeFinish, [&] { analyzer.reset(); });
    tr_.time_only(kClassify, [&] { filter.reset(); });
    tr_.time_only(kIngest, [&] { source.reset(); });
  }

  /// campus_monitor --daemon --replay --loops 1 --report-dir: the
  /// daemon's loop over EpochEngine, epoch files, journal and MANIFEST.
  void monitor(const Site& site, const std::string& dir, query::Manifest& manifest) {
    net::ReplayLiveSourceConfig rcfg;
    rcfg.path = site.pcap;
    rcfg.loops = 1;
    std::optional<net::ReplayLiveSource> source;
    tr_.span(kReplayLoad, 1, [&] { source.emplace(rcfg); });
    if (!source->ok()) return fail(site.pcap + ": " + source->error());

    analysis::EpochEngineConfig ecfg;
    ecfg.analyzer.keep_frames = false;
    ecfg.shards = opt_.shards;
    ecfg.limits = opt_.limits;
    ecfg.collect_journal = true;
    std::optional<analysis::EpochEngine> engine;
    tr_.time_only(kEpochOffer, [&] { engine.emplace(ecfg); });

    const std::string journal_name = "journal-" + site.name + "-000000000000.zpmj";
    query::JournalWriter journal;
    std::string error;
    const bool opened = tr_.span(kAppend, 0, [&] {
      return journal.open(dir + "/" + journal_name, site.name,
                          static_cast<std::uint32_t>(opt_.shards), &error);
    });
    if (!opened) return fail(journal_name + ": " + error);
    manifest.entries.push_back(query::ManifestEntry{journal_name, site.name, 0, 0, 0, 0});
    query::ManifestEntry& entry = manifest.entries.back();

    std::vector<analysis::EpochReport> reports;
    std::vector<query::EpochSliceSet> slices;
    const auto on_epoch = [&](const analysis::EpochReport& report,
                              const query::EpochSliceSet& set) {
      char name[32];
      std::snprintf(name, sizeof(name), "epoch-%08llu.bin",
                    static_cast<unsigned long long>(report.seq));
      if (!tr_.span(kPersist, 1, [&] {
            return analysis::save_epoch_report(report, dir + "/" + name, &error);
          }))
        fail(std::string(name) + ": " + error);
      for (const auto& slice : set)
        if (!tr_.span(kAppend, 1, [&] { return journal.append(slice, &error); }))
          fail(journal_name + ": " + error);
      entry.first_us = journal.first_us();
      entry.last_us = journal.last_us();
      entry.epochs = journal.epochs();
      entry.records = journal.records();
      if (!tr_.span(kPersist, 0, [&] { return query::save_manifest(manifest, dir, &error); }))
        fail("MANIFEST: " + error);
      reports.push_back(report);
      slices.push_back(set);
    };

    std::vector<net::RawPacketView> batch;
    batch.reserve(kBatch);
    std::vector<analysis::EpochReport> completed;
    std::vector<query::EpochSliceSet> completed_slices;
    for (;;) {
      const auto status =
          tr_.span(kReplayPoll, 0, [&] { return source->poll_batch(batch, kBatch); });
      if (status != net::SourceStatus::Batch) {
        if (status != net::SourceStatus::EndOfStream) fail(site.pcap + ": replay did not end cleanly");
        break;
      }
      tr_.add_items(kReplayPoll, batch.size());
      completed.clear();
      completed_slices.clear();
      tr_.span(kEpochOffer, batch.size(), [&] {
        engine->offer(batch, pipeline::BatchLifetime::Pinned, completed, &completed_slices);
      });
      for (std::size_t i = 0; i < completed.size(); ++i)
        on_epoch(completed[i], i < completed_slices.size() ? completed_slices[i]
                                                            : query::EpochSliceSet{});
    }
    query::EpochSliceSet last;
    if (auto report = tr_.span(kEpochOffer, 0, [&] { return engine->flush(&last); }))
      on_epoch(*report, last);
    if (!tr_.span(kAppend, 0, [&] { return journal.finalize(&error); }))
      fail(journal_name + ": " + error);
    entry.records = journal.records();
    if (!tr_.span(kPersist, 0, [&] { return query::save_manifest(manifest, dir, &error); }))
      fail("MANIFEST: " + error);
    res_.packets_offered += source->packets_read();
    res_.epochs += reports.size();
    res_.records += journal.records();

    std::uint64_t next = 0;
    for (const auto& r : reports) {
      if (r.first_packet != next) fail(site.name + ": epoch " + std::to_string(r.seq) +
                                       " does not start where the previous ended");
      next = r.first_packet + r.packets;
    }
    if (next != site.packets)
      fail(site.name + ": epochs cover " + std::to_string(next) + " of " +
           std::to_string(site.packets) + " packets");
    tr_.time_only(kEpochOffer, [&] { engine.reset(); });
    tr_.time_only(kReplayLoad, [&] { source.reset(); });  // frees the replay copy
    reanalyze(site, reports, slices);
  }

  /// Each epoch's packets through a fresh serial analyzer and the slice
  /// builder: the rows must equal what the engine journaled.
  void reanalyze(const Site& site, const std::vector<analysis::EpochReport>& reports,
                 const std::vector<query::EpochSliceSet>& journaled) {
    std::optional<net::TraceSource> source;
    tr_.time_only(kIngest, [&] { source.emplace(site.pcap); });
    if (!source->ok()) return fail(site.pcap + ": " + source->error());
    core::AnalyzerConfig cfg;
    cfg.keep_frames = false;
    std::optional<core::Analyzer> analyzer;
    std::size_t epoch = 0;
    std::uint64_t index = 0;
    std::vector<const core::StreamInfo*> streams;
    query::EpochSliceSet built;
    std::size_t mismatched = 0;
    const auto close = [&] {
      tr_.span(kCoreOffer, 0, [&] { analyzer->finish(); });
      const auto& r = reports[epoch];
      query::SliceSource src;
      src.seq = r.seq;
      src.first_packet = r.first_packet;
      src.packets = r.packets;
      src.first_us = r.first_ts.us();
      src.last_us = r.last_ts.us();
      src.shard_count = static_cast<std::uint32_t>(opt_.shards);
      streams.clear();
      for (const auto& s : analyzer->streams().streams()) streams.push_back(s.get());
      src.streams = streams;
      src.grouper = &analyzer->meetings();
      tr_.span(kSliceBuild, 1, [&] { query::build_epoch_slices(src, built); });
      const auto& want = journaled[epoch];
      bool same = built.size() == want.size();
      for (std::size_t i = 0; same && i < built.size(); ++i)
        same = built[i].streams == want[i].streams && built[i].meetings == want[i].meetings &&
               built[i].first_packet == want[i].first_packet &&
               built[i].packets == want[i].packets;
      if (!same) ++mismatched;
      tr_.time_only(kCoreOffer, [&] { analyzer.reset(); });
      ++epoch;
    };
    std::vector<net::RawPacketView> batch;
    batch.reserve(kBatch);
    for (;;) {
      const std::size_t n = tr_.span(kIngest, 0, [&] { return source->next_batch(batch, kBatch); });
      if (n == 0) break;
      tr_.add_items(kIngest, n);
      std::size_t i = 0;
      while (i < n && epoch < reports.size()) {
        if (!analyzer) tr_.time_only(kCoreOffer, [&] { analyzer.emplace(cfg); });
        const std::uint64_t end = reports[epoch].first_packet + reports[epoch].packets;
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(n - i, end - index));
        tr_.span(kCoreOffer, take, [&] {
          for (std::size_t k = i; k < i + take; ++k) analyzer->offer(batch[k]);
        });
        i += take;
        index += take;
        if (index == end) close();
      }
    }
    res_.packets_offered += source->packets_read();
    tr_.time_only(kIngest, [&] { source.reset(); });
    if (epoch != reports.size())
      fail(site.name + ": re-analysis closed " + std::to_string(epoch) + " of " +
           std::to_string(reports.size()) + " epochs");
    if (mismatched > 0)
      fail(site.name + ": " + std::to_string(mismatched) +
           " epochs' journal rows differ from a serial re-analysis");
  }

  /// The seeded mix through JournalReader::open + run_query.
  void query_pass(const std::string& dir) {
    Layout layout;
    std::string error;
    bool ok = false;
    std::vector<QueryRequest> mix;
    tr_.time_only(kHarness, [&] {
      ok = read_layout(dir, layout, error);
      if (ok) mix = make_mix(layout, opt_.query_seed);
    });
    if (!ok) return fail(dir + ": " + error);
    std::vector<query::QueryResult> answers;
    for (std::size_t q = 0; q < mix.size(); ++q) {
      std::vector<std::unique_ptr<query::JournalReader>> owned;
      std::vector<query::JournalReader*> readers;
      std::vector<std::uint32_t> site_of;
      std::vector<std::string> site_names;
      for (const auto& entry : layout.manifest.entries) {
        if (entry.last_us < mix[q].from_us || entry.first_us > mix[q].to_us) continue;
        auto reader = std::make_unique<query::JournalReader>();
        if (!tr_.span(kOpen, 1, [&] { return reader->open(dir + "/" + entry.path, &error); }))
          return fail(entry.path + ": " + error);
        ++res_.journals_opened;
        const auto it = std::find(site_names.begin(), site_names.end(), entry.site);
        site_of.push_back(static_cast<std::uint32_t>(it - site_names.begin()));
        if (it == site_names.end()) site_names.push_back(entry.site);
        readers.push_back(reader.get());
        owned.push_back(std::move(reader));
      }
      query::QueryResult result;
      ok = tr_.span(kRun, 0, [&] {
        return query::run_query(mix[q], readers, site_of, site_names, result, &error);
      });
      tr_.time_only(kOpen, [&] { owned.clear(); });  // unmaps the journals
      if (!ok || result.records_corrupt > 0)
        return fail(query::format_query_request(mix[q]) + ": " + error);
      tr_.add_items(kRun, result.records_read);
      res_.records_read += result.records_read;
      ++res_.queries;
      answers.push_back(std::move(result));
    }
    res_.answers_digest = digest(answers);
  }

  const Options& opt_;
  Tracer tr_;
  bool traced_;
  std::vector<std::string>& fails_;
  RoundResult res_;
  std::map<std::string, core::AnalyzerCounters> serial_counters_;
};

int usage() {
  std::fprintf(stderr,
               "usage: pb_trace --work-dir <dir> --seconds <s> --shards <n> "
               "--epoch-seconds <s> --query-seed <n> "
               "--site <name>=<pcap>:<packets>:<zoom_server>:<zoom_p2p>:<meetings>:"
               "<late_joins> ...\n");
  return 2;
}

bool parse_site(const std::string& spec, Site& out) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) return false;
  out.name = spec.substr(0, eq);
  std::vector<std::string> parts;
  std::size_t pos = eq + 1;
  for (;;) {
    const auto colon = spec.find(':', pos);
    parts.push_back(spec.substr(pos, colon == std::string::npos ? colon : colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (parts.size() != 6) return false;
  out.pcap = parts[0];
  out.packets = std::strtoull(parts[1].c_str(), nullptr, 10);
  out.zoom_server = std::strtoull(parts[2].c_str(), nullptr, 10);
  out.zoom_p2p = std::strtoull(parts[3].c_str(), nullptr, 10);
  out.meetings = std::strtoull(parts[4].c_str(), nullptr, 10);
  out.late_joins = std::strtoull(parts[5].c_str(), nullptr, 10);
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--shards") {
      opt.shards = std::max<std::size_t>(1, std::strtoull(value, nullptr, 10));
    } else if (flag == "--epoch-seconds") {
      opt.limits.max_span = util::Duration::seconds(std::atof(value));
    } else if (flag == "--query-seed") {
      opt.query_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--site") {
      Site site;
      if (!parse_site(value, site)) return usage();
      opt.sites.push_back(site);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || opt.sites.empty() || opt.seconds <= 0)
    return usage();

  std::vector<std::string> fails;
  std::array<StageTotals, kStages> totals{};
  RoundResult sum;
  std::vector<double> traced_ms, untraced_ms;
  std::optional<std::uint64_t> first_digest;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::uint64_t attempted = 0;
  for (std::size_t pair = 0; pair == 0 || now_ns() < deadline; ++pair) {
    for (const bool traced : {false, true}) {
      Round round(opt, traced, fails);
      const RoundResult r = round.run();
      attempted += r.packets_offered + r.queries;
      if (!first_digest) first_digest = r.answers_digest;
      if (*first_digest != r.answers_digest)
        fails.push_back("the query mix answered differently in two rounds");
      (traced ? traced_ms : untraced_ms).push_back(static_cast<double>(r.total_ns) / 1e6);
      if (!traced) continue;
      for (std::size_t s = 0; s < kStages; ++s) {
        totals[s].ns += round.tracer().totals()[s].ns;
        totals[s].calls += round.tracer().totals()[s].calls;
        totals[s].items += round.tracer().totals()[s].items;
        totals[s].allocs += round.tracer().totals()[s].allocs;
      }
      sum.total_ns += r.total_ns;
      sum.packets_offered += r.packets_offered;
      sum.epochs += r.epochs;
      sum.records += r.records;
      sum.journal_bytes += r.journal_bytes;
      sum.journals_opened += r.journals_opened;
      sum.records_read += r.records_read;
      sum.queries += r.queries;
      sum.full_parse += r.full_parse;
      sum.classified += r.classified;
      sum.sketch_evictions += r.sketch_evictions;
      sum.wait_spins += r.wait_spins;
      sum.sharded_packets += r.sharded_packets;
    }
  }
  std::filesystem::remove_all(opt.work_dir + "/trace-report");

  // Stage table: every span's time against the traced rounds' total.
  std::int64_t stage_sum = 0;
  std::fprintf(stderr, "pb_trace: %zu traced rounds\n%-22s %12s %10s %12s %10s\n",
               traced_ms.size(), "stage", "ms", "calls", "items", "allocs");
  for (std::size_t s = 0; s < kStages; ++s) {
    stage_sum += totals[s].ns;
    std::fprintf(stderr, "%-22s %12.2f %10llu %12llu %10llu\n", kStageNames[s],
                 static_cast<double>(totals[s].ns) / 1e6,
                 static_cast<unsigned long long>(totals[s].calls),
                 static_cast<unsigned long long>(totals[s].items),
                 static_cast<unsigned long long>(totals[s].allocs));
  }
  const double total_ms = static_cast<double>(sum.total_ns) / 1e6;
  const double stage_pct = 100.0 * static_cast<double>(stage_sum) / static_cast<double>(sum.total_ns);
  std::fprintf(stderr, "%-22s %12.2f\n%-22s %12.2f  (%.1f%% of total)\n", "traced total", total_ms,
               "stage sum", static_cast<double>(stage_sum) / 1e6, stage_pct);
  if (stage_pct < 90.0 || stage_pct > 110.0)
    fails.push_back("stage rows add up to " + std::to_string(stage_pct) +
                    "% of the traced total, outside 90-110%");

  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto ns_per = [&](Stage s) {
    return per(static_cast<double>(totals[s].ns), static_cast<double>(totals[s].items));
  };
  const auto allocs_per_kpkt = [&](std::initializer_list<Stage> stages, std::uint64_t packets) {
    std::uint64_t a = 0;
    for (const auto s : stages) a += totals[s].allocs;
    return per(1000.0 * static_cast<double>(a), static_cast<double>(packets));
  };
  const double pipe_ns = static_cast<double>(totals[kPipeOffer].ns);
  const std::uint64_t net_packets = totals[kIngest].items + totals[kReplayPoll].items;
  const double untraced_med = median(untraced_ms);
  const double traced_med = median(traced_ms);
  const std::vector<std::pair<const char*, double>> metrics = {
      {"net.ingest_ns_per_pkt", ns_per(kIngest)},
      {"net.replay_load_ms",
       per(static_cast<double>(totals[kReplayLoad].ns) / 1e6,
           static_cast<double>(totals[kReplayLoad].calls))},
      {"capture.classify_ns_per_pkt", ns_per(kClassify)},
      {"capture.full_parse_per_kpkt",
       per(1000.0 * static_cast<double>(sum.full_parse), static_cast<double>(sum.classified))},
      {"capture.sketch_evictions_per_kpkt",
       per(1000.0 * static_cast<double>(sum.sketch_evictions),
           static_cast<double>(sum.classified))},
      {"core.offer_ns_per_pkt", ns_per(kCoreOffer)},
      {"pipeline.offer_batch_ns_per_pkt", per(pipe_ns, static_cast<double>(totals[kPipeOffer].items))},
      {"pipeline.wait_spins_per_kpkt",
       per(1000.0 * static_cast<double>(sum.wait_spins), static_cast<double>(sum.sharded_packets))},
      {"pipeline.finish_ms",
       per(static_cast<double>(totals[kPipeFinish].ns) / 1e6,
           static_cast<double>(totals[kPipeFinish].calls))},
      {"analysis.epoch_offer_ns_per_pkt", ns_per(kEpochOffer)},
      {"analysis.epochs", per(static_cast<double>(sum.epochs), static_cast<double>(traced_ms.size()))},
      {"analysis.persist_us_per_epoch",
       per(static_cast<double>(totals[kPersist].ns) / 1e3, static_cast<double>(sum.epochs))},
      {"query.slice_build_us_per_epoch",
       per(static_cast<double>(totals[kSliceBuild].ns) / 1e3,
           static_cast<double>(totals[kSliceBuild].calls))},
      {"query.append_us_per_record",
       per(static_cast<double>(totals[kAppend].ns) / 1e3, static_cast<double>(sum.records))},
      {"query.bytes_per_record",
       per(static_cast<double>(sum.journal_bytes), static_cast<double>(sum.records))},
      {"query.open_us_per_journal",
       per(static_cast<double>(totals[kOpen].ns) / 1e3, static_cast<double>(sum.journals_opened))},
      {"query.records_read_per_query",
       per(static_cast<double>(sum.records_read), static_cast<double>(sum.queries))},
      {"query.run_ns_per_record", ns_per(kRun)},
      {"net.allocs_per_kpkt", allocs_per_kpkt({kIngest, kReplayLoad, kReplayPoll}, net_packets)},
      {"capture.allocs_per_kpkt", allocs_per_kpkt({kClassify}, totals[kClassify].items)},
      {"core.allocs_per_kpkt", allocs_per_kpkt({kCoreOffer}, totals[kCoreOffer].items)},
      {"pipeline.allocs_per_kpkt",
       allocs_per_kpkt({kPipeOffer, kPipeFinish}, totals[kPipeOffer].items)},
      {"analysis.allocs_per_kpkt",
       allocs_per_kpkt({kEpochOffer, kPersist}, totals[kEpochOffer].items)},
      {"trace.total_ms", traced_med},
      {"trace.untraced_total_ms", untraced_med},
      {"trace.overhead_pct", 100.0 * (traced_med - untraced_med) / untraced_med},
      {"trace.stage_sum_pct", stage_pct},
  };
  for (const auto& [name, value] : metrics) std::printf("%s=%.6f\n", name, value);
  std::printf("attempted=%llu\n", static_cast<unsigned long long>(attempted));
  for (const auto& f : fails) std::fprintf(stderr, "pb_trace: check failed: %s\n", f.c_str());
  return fails.empty() ? 0 : 1;
}
