#include "analysis/daemon.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

namespace zpm::analysis {

namespace {

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

MonitorDaemon* g_signal_daemon = nullptr;

void daemon_signal_handler(int sig) {
  MonitorDaemon* d = g_signal_daemon;
  if (d == nullptr) return;
#if defined(SIGHUP)
  if (sig == SIGHUP) {
    d->request_reload();
    return;
  }
#endif
  (void)sig;
  d->request_shutdown();
}

}  // namespace

void MonitorDaemon::install_signal_handlers(MonitorDaemon* daemon) {
  g_signal_daemon = daemon;
  const auto handler = daemon != nullptr ? daemon_signal_handler : SIG_DFL;
  std::signal(SIGTERM, handler);
  std::signal(SIGINT, handler);
#if defined(SIGHUP)
  std::signal(SIGHUP, handler);
#endif
}

MonitorDaemon::MonitorDaemon(DaemonConfig config)
    : config_(std::move(config)) {}

void MonitorDaemon::restore() {
  if (config_.engine.frontend && config_.engine.flow_memory_budget > 0)
    lifetime_tier_.emplace(config_.engine.flow_memory_budget);
  if (config_.snapshot_path.empty()) {
    restore_status_ = RestoreStatus::Missing;
    return;
  }
  SnapshotData data;
  std::string error;
  restore_status_ = load_snapshot(config_.snapshot_path, data, &error);
  switch (restore_status_) {
    case RestoreStatus::Missing:
      if (config_.verbose)
        std::fprintf(stderr, "zpm-daemon: no snapshot, fresh start\n");
      return;
    case RestoreStatus::Corrupt:
      if (config_.verbose)
        std::fprintf(stderr, "zpm-daemon: snapshot rejected (%s), fresh start\n",
                     error.c_str());
      return;
    case RestoreStatus::Ok:
      break;
  }
  cumulative_ = std::move(data);
  engine_->set_next_seq(cumulative_.next_epoch_seq);
  engine_->set_global_packets(cumulative_.packets_consumed);
  if (lifetime_tier_ && !cumulative_.background_tier.empty()) {
    util::ByteReader r(cumulative_.background_tier);
    if (!lifetime_tier_->deserialize(r)) {
      // Budget changed between runs (or the blob is stale): the tier's
      // geometry cannot be restored 1:1 — start its summary fresh.
      lifetime_tier_.emplace(config_.engine.flow_memory_budget);
      if (config_.verbose)
        std::fprintf(stderr,
                     "zpm-daemon: background-tier image incompatible, "
                     "tier restarted fresh\n");
    }
  }
  if (config_.verbose)
    std::fprintf(stderr,
                 "zpm-daemon: restored snapshot: resuming at packet %llu, "
                 "epoch %llu\n",
                 static_cast<unsigned long long>(cumulative_.packets_consumed),
                 static_cast<unsigned long long>(cumulative_.next_epoch_seq));
}

void MonitorDaemon::open_journal() {
  if (!config_.engine.collect_journal || config_.report_dir.empty()) return;
  // No fixed name buffer: a long --site must not truncate away the
  // epoch-seq suffix (the restart-collision guard) or two runs would
  // compute the same filename and clobber a crashed segment.
  char seq[32];
  std::snprintf(seq, sizeof(seq), "%012llu",
                static_cast<unsigned long long>(engine_->next_seq()));
  journal_name_ = "journal-" + config_.site + "-" + seq + ".zpmj";
  // A restart must not orphan earlier segments: merge into whatever
  // MANIFEST the directory already has (crashed segments stay listed
  // and stay queryable via the reader's scan fallback).
  std::string error;
  if (!query::load_manifest(config_.report_dir, manifest_, &error))
    manifest_ = query::Manifest{};
  if (!journal_.open(config_.report_dir + "/" + journal_name_, config_.site,
                     static_cast<std::uint32_t>(
                         config_.engine.shards > 0 ? config_.engine.shards : 1),
                     &error)) {
    std::fprintf(stderr, "zpm-daemon: journal open failed: %s\n",
                 error.c_str());
    journal_name_.clear();
    return;
  }
  if (config_.verbose)
    std::fprintf(stderr, "zpm-daemon: journal segment %s opened\n",
                 journal_name_.c_str());
}

void MonitorDaemon::update_manifest() {
  if (journal_name_.empty()) return;
  query::ManifestEntry entry;
  entry.path = journal_name_;
  entry.site = config_.site;
  entry.first_us = journal_.first_us();
  entry.last_us = journal_.last_us();
  entry.epochs = journal_.epochs();
  entry.records = journal_.records();
  bool replaced = false;
  for (auto& existing : manifest_.entries) {
    if (existing.path == entry.path) {
      existing = entry;
      replaced = true;
      break;
    }
  }
  if (!replaced) manifest_.entries.push_back(entry);
  std::string error;
  if (!query::save_manifest(manifest_, config_.report_dir, &error))
    std::fprintf(stderr, "zpm-daemon: manifest write failed: %s\n",
                 error.c_str());
}

bool MonitorDaemon::on_epoch(const EpochReport& report,
                             const query::EpochSliceSet* slices) {
  cumulative_.cumulative_counters.merge(report.counters);
  cumulative_.cumulative_health.merge(report.health);
  stats_.offered_packets += report.packets;
  stats_.admitted_packets += report.counters.total_packets;
  stats_.shed_packets += report.health.overload_shed_total();
  cumulative_.next_epoch_seq = report.seq + 1;
  // Resume position: the packet right after the completed epoch. The
  // in-progress epoch's packets are deliberately not covered — they are
  // the "at most one epoch" a crash may lose.
  cumulative_.packets_consumed = report.first_packet + report.packets;
  if (lifetime_tier_) {
    lifetime_tier_->fold_stats(report.tier_stats);
    for (const auto& h : report.heavy_hitters) {
      const net::PackedFlowKey key(h.flow);
      lifetime_tier_->fold(key, net::canonical_flow_hash(key),
                           sketch::FlowStats{h.packets, h.bytes});
    }
  }
  ++stats_.epochs_rotated;

  bool ok = true;
  std::string error;
  if (!config_.report_dir.empty()) {
    // Site-qualified like the journal segments, so daemons sharing one
    // report directory never overwrite each other's epochs.
    char seq[32];
    std::snprintf(seq, sizeof(seq), "%08llu",
                  static_cast<unsigned long long>(report.seq));
    const std::string name = "epoch-" + config_.site + "-" + seq + ".bin";
    if (save_epoch_report(report, config_.report_dir + "/" + name, &error)) {
      ++stats_.epoch_files_written;
    } else {
      ok = false;
      std::fprintf(stderr, "zpm-daemon: epoch report write failed: %s\n",
                   error.c_str());
    }
  }
  if (slices != nullptr && journal_.is_open()) {
    for (const auto& slice : *slices) {
      if (journal_.append(slice, &error)) {
        ++stats_.journal_records_written;
      } else {
        ok = false;
        std::fprintf(stderr, "zpm-daemon: journal append failed: %s\n",
                     error.c_str());
        break;
      }
    }
    update_manifest();
  }
  if (!config_.snapshot_path.empty()) {
    // The recent-epoch window and the tier image exist only for the
    // snapshot, so they are built only when one is written.
    auto& recent = cumulative_.recent_epochs;
    recent.push_back(report);
    if (recent.size() > kSnapshotRecentEpochs)
      recent.erase(recent.begin(), recent.end() - kSnapshotRecentEpochs);
    if (lifetime_tier_) {
      util::ByteWriter w;
      lifetime_tier_->serialize(w);
      cumulative_.background_tier = w.take();
    }
    if (save_snapshot(cumulative_, config_.snapshot_path, &error)) {
      ++stats_.snapshots_written;
    } else {
      ok = false;
      std::fprintf(stderr, "zpm-daemon: snapshot write failed: %s\n",
                   error.c_str());
    }
  }
  if (config_.verbose) {
    std::fprintf(stderr,
                 "zpm-daemon: epoch %llu rotated: %llu packets, %llu zoom, "
                 "%llu streams, %llu meetings, %llu flows retired\n",
                 static_cast<unsigned long long>(report.seq),
                 static_cast<unsigned long long>(report.packets),
                 static_cast<unsigned long long>(report.counters.zoom_packets),
                 static_cast<unsigned long long>(report.stream_count),
                 static_cast<unsigned long long>(report.meeting_count),
                 static_cast<unsigned long long>(report.zoom_flow_count));
    if (report.max_overload_level > 0)
      std::fprintf(stderr,
                   "zpm-daemon: epoch %llu overload: max level L%u, shed "
                   "l1=%llu l2=%llu l3=%llu l4=%llu\n",
                   static_cast<unsigned long long>(report.seq),
                   report.max_overload_level,
                   static_cast<unsigned long long>(report.health.overload_shed_l1),
                   static_cast<unsigned long long>(report.health.overload_shed_l2),
                   static_cast<unsigned long long>(report.health.overload_shed_l3),
                   static_cast<unsigned long long>(report.health.overload_shed_l4));
  }
  return ok;
}

void MonitorDaemon::reload_config_file() {
  ++stats_.config_reloads;
  if (config_.config_path.empty()) {
    if (config_.verbose)
      std::fprintf(stderr, "zpm-daemon: reload requested but no config file\n");
    return;
  }
  std::ifstream in(config_.config_path);
  if (!in) {
    std::fprintf(stderr, "zpm-daemon: cannot read config %s\n",
                 config_.config_path.c_str());
    return;
  }
  EpochLimits limits = engine_->config().limits;
  core::AnalyzerConfig analyzer = engine_->config().analyzer;
  bool frontend = engine_->config().frontend;
  std::size_t budget = engine_->config().flow_memory_budget;
  overload::GovernorConfig governor = engine_->config().overload.governor;
  bool staged_change = false;
  bool governor_change = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key == "epoch_packets") {
      limits.max_packets = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "epoch_seconds") {
      limits.max_span = util::Duration::seconds(std::atof(value.c_str()));
    } else if (key == "watchdog_seconds") {
      config_.watchdog = util::Duration::seconds(std::atof(value.c_str()));
    } else if (key == "p2p_timeout_seconds") {
      analyzer.p2p_timeout = util::Duration::seconds(std::atof(value.c_str()));
      staged_change = true;
    } else if (key == "frontend") {
      frontend = value != "0";
      staged_change = true;
    } else if (key == "flow_memory_budget") {
      budget = static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
      staged_change = true;
    } else if (key == "overload_high_watermark") {
      governor.high_watermark = std::atof(value.c_str());
      governor_change = true;
    } else if (key == "overload_low_watermark") {
      governor.low_watermark = std::atof(value.c_str());
      governor_change = true;
    } else if (key == "overload_alpha") {
      governor.alpha = std::atof(value.c_str());
      governor_change = true;
    } else if (key == "overload_escalate_after") {
      governor.escalate_after =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
      governor_change = true;
    } else if (key == "overload_recover_after") {
      governor.recover_after =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
      governor_change = true;
    } else if (config_.verbose) {
      std::fprintf(stderr, "zpm-daemon: config: unknown key '%s' ignored\n",
                   key.c_str());
    }
  }
  // Epoch limits act on the in-progress window immediately; engine
  // changes are staged to the next rotation so live flow state is
  // never dropped mid-window. Governor thresholds retune live too —
  // overload response must not wait for a rotation.
  engine_->set_limits(limits);
  if (governor_change) engine_->set_overload_thresholds(governor);
  if (staged_change) engine_->stage_config(analyzer, frontend, budget);
  if (config_.verbose)
    std::fprintf(stderr,
                 "zpm-daemon: config reloaded from %s (%s)\n",
                 config_.config_path.c_str(),
                 staged_change ? "engine changes staged to next rotation"
                               : "limits applied");
}

void MonitorDaemon::final_flush() {
  query::EpochSliceSet last_slices;
  if (auto report = engine_->flush(&last_slices))
    on_epoch(*report, last_slices.empty() ? nullptr : &last_slices);
  if (journal_.is_open()) {
    std::string error;
    if (journal_.finalize(&error)) {
      update_manifest();
      if (config_.verbose)
        std::fprintf(stderr, "zpm-daemon: journal segment %s sealed "
                             "(%llu records)\n",
                     journal_name_.c_str(),
                     static_cast<unsigned long long>(
                         stats_.journal_records_written));
    } else {
      std::fprintf(stderr, "zpm-daemon: journal finalize failed: %s\n",
                   error.c_str());
    }
  }
  const overload::GovernorStats gov = engine_->governor_stats();
  stats_.overload_escalations = gov.escalations;
  stats_.overload_recoveries = gov.recoveries;
  stats_.overload_max_level = gov.max_level;
  const std::uint64_t dropped = cumulative_.cumulative_health.dropped_records();
  if (config_.verbose) {
    std::fprintf(stderr,
                 "zpm-daemon: graceful shutdown: %llu epochs, %llu packets, "
                 "%llu stalls, %llu reloads\n",
                 static_cast<unsigned long long>(stats_.epochs_rotated),
                 static_cast<unsigned long long>(stats_.packets_processed),
                 static_cast<unsigned long long>(stats_.source_stalls),
                 static_cast<unsigned long long>(stats_.config_reloads));
    std::fprintf(stderr, "zpm-daemon: health: %llu dropped records%s\n",
                 static_cast<unsigned long long>(dropped),
                 dropped == 0 ? " (all clear)" : "");
    if (config_.engine.overload.enabled) {
      // Conservation over this run's completed epochs: every offered
      // packet is either admitted (analyzer totals) or shed by a ladder
      // level; kernel drops happen upstream of `offered` and are
      // reported alongside. `unaccounted=0` is the invariant the stress
      // smoke asserts.
      const std::uint64_t accounted =
          stats_.admitted_packets + stats_.shed_packets;
      const std::uint64_t unaccounted =
          stats_.offered_packets >= accounted
              ? stats_.offered_packets - accounted
              : accounted - stats_.offered_packets;
      std::fprintf(
          stderr,
          "zpm-daemon: overload: max level L%d, %llu escalations, %llu "
          "recoveries\n",
          gov.max_level, static_cast<unsigned long long>(gov.escalations),
          static_cast<unsigned long long>(gov.recoveries));
      std::fprintf(
          stderr,
          "zpm-daemon: conservation: offered=%llu admitted=%llu shed=%llu "
          "kernel_drops=%llu unaccounted=%llu %s\n",
          static_cast<unsigned long long>(stats_.offered_packets),
          static_cast<unsigned long long>(stats_.admitted_packets),
          static_cast<unsigned long long>(stats_.shed_packets),
          static_cast<unsigned long long>(stats_.kernel_drops),
          static_cast<unsigned long long>(unaccounted),
          unaccounted == 0 ? "OK" : "VIOLATION");
    }
    if (cumulative_.cumulative_health.kernel_packets > 0 ||
        cumulative_.cumulative_health.kernel_drops > 0)
      std::fprintf(
          stderr, "zpm-daemon: kernel: %llu packets seen, %llu drops\n",
          static_cast<unsigned long long>(
              cumulative_.cumulative_health.kernel_packets),
          static_cast<unsigned long long>(
              cumulative_.cumulative_health.kernel_drops));
  }
}

int MonitorDaemon::run(net::BatchSource& source) {
  engine_.emplace(config_.engine);
  restore();
  // After restore: the segment is named by the resumed epoch seq, so a
  // restarted daemon opens a fresh file and never clobbers the crashed
  // (index-less, scan-recoverable) one.
  open_journal();
  if (cumulative_.packets_consumed > 0 &&
      !source.skip_to(cumulative_.packets_consumed)) {
    std::fprintf(stderr,
                 "zpm-daemon: source cannot seek to packet %llu; continuing "
                 "from its current position\n",
                 static_cast<unsigned long long>(cumulative_.packets_consumed));
  }

  const auto lifetime = source.pinned() ? pipeline::BatchLifetime::Pinned
                                        : pipeline::BatchLifetime::Transient;
  std::vector<net::RawPacketView> batch;
  batch.reserve(config_.max_batch);
  std::vector<EpochReport> completed;
  std::vector<query::EpochSliceSet> completed_slices;
  const bool journaling = journal_.is_open();
  std::int64_t last_data_us = steady_us();
  util::Duration backoff = config_.backoff_initial;
  std::int64_t next_reopen_us = 0;
  net::KernelCaptureStats kernel_base;  // last absolute reading
  int last_overload_level = engine_->overload_level();

  for (;;) {
    if (shutdown_.load(std::memory_order_relaxed)) {
      final_flush();
      return 0;
    }
    if (reload_.exchange(false, std::memory_order_relaxed))
      reload_config_file();

    const net::SourceStatus status = source.poll_batch(batch, config_.max_batch);

    // Kernel capture gauges: the source reports absolute counters; keep
    // them as this-run deltas so reopen() resetting the kernel ring (the
    // counters shrink) re-bases instead of corrupting the gauges. Drop
    // deltas feed the governor as a pinned-pressure signal.
    const net::KernelCaptureStats kernel_now = source.kernel_stats();
    if (kernel_now.kernel_packets < kernel_base.kernel_packets ||
        kernel_now.kernel_drops < kernel_base.kernel_drops) {
      kernel_base = kernel_now;  // ring reset after reopen
    } else {
      const std::uint64_t dp = kernel_now.kernel_packets - kernel_base.kernel_packets;
      const std::uint64_t dd = kernel_now.kernel_drops - kernel_base.kernel_drops;
      kernel_base = kernel_now;
      if (dp > 0) cumulative_.cumulative_health.kernel_packets += dp;
      if (dd > 0) {
        cumulative_.cumulative_health.kernel_drops += dd;
        stats_.kernel_drops += dd;
        engine_->note_kernel_drops(dd);
      }
    }

    switch (status) {
      case net::SourceStatus::Batch: {
        last_data_us = steady_us();
        backoff = config_.backoff_initial;
        next_reopen_us = 0;
        stats_.packets_processed += batch.size();
        completed.clear();
        completed_slices.clear();
        engine_->offer(batch, lifetime, completed,
                       journaling ? &completed_slices : nullptr);
        const int level = engine_->overload_level();
        if (level != last_overload_level) {
          if (config_.verbose)
            std::fprintf(stderr,
                         "zpm-daemon: overload %s L%d -> L%d (pressure %.2f)\n",
                         level > last_overload_level ? "escalation" : "recovery",
                         last_overload_level, level, engine_->overload_pressure());
          last_overload_level = level;
        }
        for (std::size_t i = 0; i < completed.size(); ++i) {
          on_epoch(completed[i], journaling && i < completed_slices.size()
                                     ? &completed_slices[i]
                                     : nullptr);
        }
        if (config_.halt_after_epochs > 0 && !completed.empty() &&
            stats_.epochs_rotated >= config_.halt_after_epochs) {
          // Crash simulation: stop with no drain and no final persist —
          // on-disk state is exactly what kill -9 here leaves behind.
          if (config_.verbose)
            std::fprintf(stderr,
                         "zpm-daemon: halting after %llu epochs "
                         "(crash simulation)\n",
                         static_cast<unsigned long long>(
                             stats_.epochs_rotated));
          return 0;
        }
        break;
      }
      case net::SourceStatus::Idle: {
        const std::int64_t now = steady_us();
        const bool watchdog_on = config_.watchdog > util::Duration::micros(0);
        if (watchdog_on && now - last_data_us >= config_.watchdog.us() &&
            now >= next_reopen_us) {
          // Stalled: health-account and reopen under capped backoff.
          ++stats_.source_stalls;
          ++cumulative_.cumulative_health.source_stalls;
          const bool reopened = source.reopen();
          ++stats_.source_reopens;
          if (config_.verbose)
            std::fprintf(stderr,
                         "zpm-daemon: source stall (quiet %.1fs); reopen %s, "
                         "next retry in %.1fs\n",
                         static_cast<double>(now - last_data_us) / 1e6,
                         reopened ? "succeeded" : "failed", backoff.sec());
          next_reopen_us = now + backoff.us();
          backoff = backoff * 2 > config_.backoff_max ? config_.backoff_max
                                                      : backoff * 2;
          if (reopened) last_data_us = steady_us();
        } else if (config_.idle_sleep > util::Duration::micros(0)) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(config_.idle_sleep.us()));
        }
        break;
      }
      case net::SourceStatus::EndOfStream:
        if (config_.verbose)
          std::fprintf(stderr, "zpm-daemon: end of stream, draining\n");
        final_flush();
        return 0;
      case net::SourceStatus::Error: {
        std::fprintf(stderr, "zpm-daemon: source error: %s\n",
                     source.error().c_str());
        if (!source.reopen()) {
          std::fprintf(stderr, "zpm-daemon: source cannot be reopened; "
                               "fatal\n");
          final_flush();
          return 1;
        }
        ++stats_.source_reopens;
        // Backoff can reach backoff_max (seconds); sleep in short slices
        // so a shutdown signal interrupts it promptly.
        for (std::int64_t left = backoff.us();
             left > 0 && !shutdown_.load(std::memory_order_relaxed);) {
          const std::int64_t slice = left < 50'000 ? left : 50'000;
          std::this_thread::sleep_for(std::chrono::microseconds(slice));
          left -= slice;
        }
        backoff = backoff * 2 > config_.backoff_max ? config_.backoff_max
                                                    : backoff * 2;
        break;
      }
    }
  }
}

}  // namespace zpm::analysis
