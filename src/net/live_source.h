// Live and replay packet sources for continuous operation.
//
// Two BatchSource implementations back the long-running daemon:
//
//   * LiveSource — a real NIC tap. On Linux it opens an AF_PACKET
//     socket in TPACKET_V3 mode: the kernel fills mmap'd ring blocks
//     and the daemon walks whole blocks at a time, which is the same
//     "hand me a block of frames" shape as the mapped trace readers
//     (and the reason CoMo-style monitors sustain multi-gigabit taps —
//     one syscall per block, not per packet). When libpcap is available
//     (ZPM_HAVE_PCAP) a plain pcap_open_live() fallback covers
//     platforms without AF_PACKET. Requires CAP_NET_RAW; everything
//     else in the daemon is testable without it via ReplayLiveSource.
//
//   * ReplayLiveSource — a deterministic in-process stand-in: maps an
//     existing trace once and replays it in batches of views straight
//     into the mapping, optionally looping forever with per-loop
//     timestamp shifts (so capture time keeps advancing), optionally
//     paced against the wall clock (so a 30 s soak run behaves like a
//     live tap instead of a microsecond-long burst), and optionally
//     stalling on command (so watchdog recovery is testable). Batch
//     *content* is a pure function of (trace, loop budget, skip
//     position) — pacing and stalls only affect timing — which is what
//     makes the daemon's crash-recovery byte-identity test possible.
//
//     Memory is the file's page cache plus one 32-byte view per packet
//     (the same mapping zpm_analyze reads from). Input that cannot be
//     mapped — a FIFO, stdin, a platform without mmap — is copied into
//     owned packets once and indexed the same way. Like zpm_analyze,
//     a mapped replay shares the hazard of any file mapping: rewriting
//     or truncating the trace in place while it is being replayed can
//     raise SIGBUS. Deleting it, or replacing it by
//     rename, is safe — the mapping keeps the old inode alive.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/batch_source.h"
#include "net/packet.h"
#include "net/trace_source.h"
#include "util/time.h"

namespace zpm::net {

/// Live capture configuration (LiveSource).
struct LiveSourceConfig {
  /// Interface name ("eth0"). Required.
  std::string interface;
  /// TPACKET_V3 ring geometry: per-block size and block count. The
  /// defaults (4 MiB x 16) buffer ~64 MiB of burst.
  std::size_t block_size = std::size_t{4} << 20;
  std::size_t block_count = 16;
  /// Kernel block-retire timeout: an unfilled block is handed over
  /// after this long, bounding batching latency on quiet links.
  std::uint32_t block_timeout_ms = 60;
  /// poll(2) timeout per poll_batch() call; expiry returns Idle.
  int poll_timeout_ms = 50;
  /// Prefer the libpcap fallback even when AF_PACKET is available
  /// (debugging aid; no effect unless built with ZPM_HAVE_PCAP).
  bool prefer_pcap = false;
};

/// Kernel-side capture statistics (best effort; zeros when the backend
/// does not report them).
struct LiveSourceStats {
  std::uint64_t kernel_packets = 0;  ///< seen by the kernel filter point
  std::uint64_t kernel_drops = 0;    ///< dropped for lack of ring space
};

/// See file comment. Views returned by poll_batch() point into the
/// capture ring (or the pcap callback buffer) and die at the next
/// poll_batch() call — not pinned.
class LiveSource : public BatchSource {
 public:
  explicit LiveSource(LiveSourceConfig config);
  ~LiveSource() override;

  LiveSource(const LiveSource&) = delete;
  LiveSource& operator=(const LiveSource&) = delete;

  /// False when the socket/ring could not be opened (missing
  /// privileges, unknown interface, unsupported platform); error()
  /// says why. A failed-open source still supports reopen().
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const override { return error_; }
  /// Which backend is active: "af_packet-v3", "pcap-live", or "none".
  [[nodiscard]] std::string_view backend() const;

  SourceStatus poll_batch(std::vector<RawPacketView>& out,
                          std::size_t max) override;
  [[nodiscard]] std::uint64_t packets_read() const override { return packets_read_; }
  [[nodiscard]] bool pinned() const override { return false; }
  /// Closes and reopens the socket/ring with the original config.
  bool reopen() override;

  /// Snapshot of the kernel drop counters.
  [[nodiscard]] LiveSourceStats stats() const;
  /// BatchSource surface for the same counters (what the daemon's
  /// health gauges and the overload governor consume).
  [[nodiscard]] KernelCaptureStats kernel_stats() const override {
    const LiveSourceStats s = stats();
    return KernelCaptureStats{s.kernel_packets, s.kernel_drops};
  }

 private:
  struct Impl;  // platform-specific state (fd, ring mapping, pcap handle)
  void open();
  void close();

  LiveSourceConfig config_;
  std::unique_ptr<Impl> impl_;
  bool ok_ = false;
  std::string error_;
  std::uint64_t packets_read_ = 0;
};

/// Replay configuration (ReplayLiveSource).
struct ReplayLiveSourceConfig {
  /// Trace file (pcap or pcapng) to load. Required.
  std::string path;
  /// How many times to play the trace; 0 = loop forever.
  std::uint64_t loops = 1;
  /// Capture-time gap inserted between consecutive loops, so the
  /// shifted timestamps stay strictly ahead of the previous loop.
  util::Duration loop_gap = util::Duration::millis(10);
  /// Wall-clock pacing in packets per second; 0 replays at full speed.
  /// Pacing affects only the *timing* of batches (ahead-of-schedule
  /// polls return Idle), never their content or order.
  double pace_pps = 0.0;
  /// Test hook: after this many delivered packets the source stalls
  /// (returns Idle despite having data) until reopen() is called —
  /// a deterministic stand-in for a wedged NIC. One-shot: reopen()
  /// disarms the trigger so the replay resumes. 0 disables.
  std::uint64_t stall_after_packets = 0;
};

/// See file comment. Views point into the trace mapping (or the owned
/// fallback copy) and stay valid for the source's lifetime, moves
/// included (pinned).
class ReplayLiveSource : public BatchSource {
 public:
  explicit ReplayLiveSource(ReplayLiveSourceConfig config);

  /// False when the trace failed to load; error() says why.
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const override { return error_; }

  SourceStatus poll_batch(std::vector<RawPacketView>& out,
                          std::size_t max) override;
  [[nodiscard]] std::uint64_t packets_read() const override { return position_; }
  [[nodiscard]] bool pinned() const override { return true; }

  /// Clears a pending stall (and counts the reopen); the replay resumes
  /// where it stalled. Always succeeds on a loaded trace.
  bool reopen() override;

  /// O(1) positional fast-forward: the next delivered packet is global
  /// packet `target` (loops included). Fails only past the loop budget.
  bool skip_to(std::uint64_t target) override;

  /// Packets in one pass of the loaded trace.
  [[nodiscard]] std::uint64_t trace_packets() const { return index_.size(); }
  /// True when views alias the trace mapping; false on the owned
  /// fallback for unmappable input.
  [[nodiscard]] bool mapped() const { return trace_ && trace_->mapped(); }
  /// Capture-time extent of one loop iteration (span + loop_gap).
  [[nodiscard]] util::Duration loop_stride() const { return stride_; }
  [[nodiscard]] std::uint64_t reopen_count() const { return reopens_; }
  /// True while the stall hook is holding batches back.
  [[nodiscard]] bool stalled() const { return stalled_; }

 private:
  ReplayLiveSourceConfig config_;
  bool ok_ = false;
  std::string error_;
  // The open trace whose mapping backs index_; null on the owned
  // fallback. Heap-held so a moved source keeps every view valid.
  std::unique_ptr<TraceSource> trace_;
  std::vector<RawPacket> owned_;       // unmappable input only
  std::vector<RawPacketView> index_;   // one loop's worth of packets
  util::Duration stride_;           // per-loop timestamp shift
  std::uint64_t position_ = 0;      // next global packet index
  bool stalled_ = false;
  std::uint64_t reopens_ = 0;
  // Pacing state (wall clock; never affects batch content). The pace
  // allowance is measured from (pace_epoch_us_, pace_base_), re-based
  // by skip_to()/reopen() so a resumed source never stalls waiting for
  // the wall clock to "catch up" to its absolute position.
  std::int64_t pace_epoch_us_ = 0;   // steady-clock µs when pacing began
  std::uint64_t pace_base_ = 0;      // position_ when pacing began
  bool pace_started_ = false;
};

}  // namespace zpm::net
