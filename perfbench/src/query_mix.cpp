// pb_query — times the seeded query mix (mix.h) over a report directory
// through query::run_query_on_manifest (what `zpm_query --dir` runs) with
// the MANIFEST loaded once, and prints
//
//   queries=<n> failed=<n> records_read=<sum> digest=<hex of every answer>
//   run_delay_ns=<sum> latencies_ns=<one per answered query, comma-separated>
//
// Each query is asked once, and its latency is that one call's wall time
// less the time the kernel kept the thread runnable but off the CPU
// (run_delay in /proc/thread-self/schedstat; its sum is printed). On a
// host shared with other tenants about one sub-millisecond call in a
// hundred waits out a whole scheduler tick, and whether that happened to
// 1% of a pass or not set its p99 at ~4 ms or ~0.2 ms. Time the call
// itself spends blocked (I/O, locks) still counts.
//
// A query fails when the call returns false, skips a journal or meets a
// corrupt record; failed queries have no latency and no place in the
// digest. A directory whose MANIFEST or journals cannot be read fails
// every query.
//
// --check <site>=<packets> (repeatable) afterwards runs the property
// checks of mix.h untimed; --compare-dir <dir> asks the mix of another
// directory too and requires byte-identical answers (a 1-shard and a
// 3-shard daemon journal of the same traces). Exit 1 on any failed query
// or check, 2 on usage.
//
// Usage: pb_query --dir <report-dir> --seed <n>
//                 [--check <site>=<packets> ...] [--compare-dir <dir>]
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "mix.h"

using namespace perfbench;

namespace {

/// This thread's total wait on a run queue in ns (the second field of
/// its schedstat), or 0 where the kernel does not report it.
class RunDelay {
 public:
  RunDelay() : fd_(::open("/proc/thread-self/schedstat", O_RDONLY | O_CLOEXEC)) {}
  ~RunDelay() {
    if (fd_ >= 0) ::close(fd_);
  }
  RunDelay(const RunDelay&) = delete;
  RunDelay& operator=(const RunDelay&) = delete;

  std::int64_t read() const {
    char buf[96];
    const ssize_t n = fd_ < 0 ? -1 : ::pread(fd_, buf, sizeof buf - 1, 0);
    if (n <= 0) return 0;
    buf[n] = '\0';
    char* end = nullptr;
    std::strtoull(buf, &end, 10);  // time on the CPU
    return static_cast<std::int64_t>(std::strtoull(end, nullptr, 10));
  }

 private:
  int fd_;
};

int usage() {
  std::fprintf(stderr, "usage: pb_query --dir <report-dir> --seed <n> "
               "[--check <site>=<packets> ...] [--compare-dir <dir>]\n");
  return 2;
}

/// run(request, result) over one directory's MANIFEST; counts the failed
/// or partial answers (skipped journal, corrupt record) and keeps the
/// first one's error.
struct ManifestRunner {
  const zpm::query::Manifest& manifest;
  const std::string& dir;
  std::size_t failed = 0;
  std::string error;

  /// True when the call answered in full.
  bool operator()(const QueryRequest& request, QueryResult& out) {
    std::size_t skipped = 0;
    std::string err;
    if (zpm::query::run_query_on_manifest(request, manifest, dir, out, &skipped, &err) &&
        skipped == 0 && out.records_corrupt == 0)
      return true;
    if (failed++ == 0) {
      error = zpm::query::format_query_request(request);
      error += " on " + dir + " failed: ";
      error += err.empty() ? "skipped or corrupt journals" : err;
    }
    return false;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string dir, compare_dir;
  std::uint64_t seed = 0;
  std::map<std::string, std::uint64_t> site_packets;
  bool check = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--dir")) {
      dir = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--compare-dir")) {
      compare_dir = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--check")) {
      const std::string spec = argv[i + 1];
      const auto eq = spec.find('=');
      if (eq == std::string::npos) return usage();
      site_packets[spec.substr(0, eq)] = std::strtoull(spec.c_str() + eq + 1, nullptr, 10);
      check = true;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || dir.empty()) return usage();

  Layout layout;
  std::string error;
  if (!read_layout(dir, layout, error)) {
    std::fprintf(stderr, "pb_query: %s: %s\n", dir.c_str(), error.c_str());
    std::printf("queries=%zu failed=%zu\n", kMixSize, kMixSize);
    return 1;
  }
  const auto mix = make_mix(layout, seed);
  ManifestRunner run{layout.manifest, dir, 0, {}};

  std::vector<QueryResult> answers;
  std::vector<std::int64_t> latency_ns;
  std::uint64_t records_read = 0;
  const RunDelay run_delay;
  std::int64_t delayed_ns = 0;
  for (const auto& request : mix) {
    QueryResult result;
    const std::int64_t d0 = run_delay.read();
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = run(request, result);
    const auto t1 = std::chrono::steady_clock::now();
    const std::int64_t delay = run_delay.read() - d0;
    if (!ok) continue;
    const std::int64_t wall =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    delayed_ns += std::min(delay, wall);
    latency_ns.push_back(std::max<std::int64_t>(0, wall - delay));
    records_read += result.records_read;
    answers.push_back(std::move(result));
  }
  const std::size_t failed = run.failed;

  std::vector<std::string> fails;
  if (failed > 0) fails.push_back(std::to_string(failed) + " queries failed, first: " + run.error);
  if (check && failed == 0) {
    const auto c = check_answers(layout, mix, answers, site_packets, run);
    fails.insert(fails.end(), c.begin(), c.end());
  }
  if (!compare_dir.empty() && failed == 0) {
    zpm::query::Manifest other;
    ManifestRunner run_other{other, compare_dir, 0, {}};
    std::size_t differ = 0;
    if (!zpm::query::load_manifest(compare_dir, other, &error))
      fails.push_back(compare_dir + ": " + error);
    else
      for (std::size_t q = 0; q < mix.size(); ++q)
        if (encode(ask(run_other, mix[q])) != encode(answers[q])) ++differ;
    if (run_other.failed > 0) fails.push_back(run_other.error);
    if (differ > 0)
      fails.push_back(std::to_string(differ) + " of " + std::to_string(mix.size()) +
                      " answers differ between " + dir + " and " + compare_dir);
  }
  if (run.failed > failed) fails.push_back(run.error);  // a check's own query failed
  for (const auto& f : fails) std::fprintf(stderr, "pb_query: check failed: %s\n", f.c_str());

  std::printf("queries=%zu failed=%zu records_read=%llu digest=%016llx\n", mix.size(), failed,
              static_cast<unsigned long long>(records_read),
              static_cast<unsigned long long>(digest(answers)));
  std::printf("run_delay_ns=%lld latencies_ns=", static_cast<long long>(delayed_ns));
  for (std::size_t q = 0; q < latency_ns.size(); ++q)
    std::printf(q == 0 ? "%lld" : ",%lld", static_cast<long long>(latency_ns[q]));
  std::printf("\n");
  return fails.empty() ? 0 : 1;
}
