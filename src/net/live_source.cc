#include "net/live_source.h"

#include <chrono>
#include <cstring>

#include "net/trace_source.h"

#if defined(__linux__)
#define ZPM_HAVE_AF_PACKET 1
#include <arpa/inet.h>
#include <linux/if_ether.h>
#include <linux/if_packet.h>
#include <net/if.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#if defined(ZPM_HAVE_PCAP)
#include <pcap/pcap.h>
#endif

namespace zpm::net {

namespace {
std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// ---------------------------------------------------------------------------
// LiveSource

struct LiveSource::Impl {
#if defined(ZPM_HAVE_AF_PACKET)
  int fd = -1;
  std::uint8_t* ring = nullptr;
  std::size_t ring_len = 0;
  std::size_t block_cursor = 0;  // next ring block to inspect
  // Partially-drained block (a block can hold more frames than one
  // poll_batch() asks for):
  tpacket_block_desc* blk = nullptr;
  const std::uint8_t* frame = nullptr;
  std::uint32_t frames_left = 0;
  // Fully-drained blocks whose frames were handed out in the most
  // recent batch. The caller's views point into them, so they stay
  // claimed until the next poll_batch() call invalidates the batch.
  std::vector<tpacket_block_desc*> retired;
  LiveSourceStats stats;  // accumulated: the kernel counter resets on read

  bool open_af_packet(const LiveSourceConfig& config, std::string& error);
  void close_af_packet();
  void release_block();
  void retire_block();
  void release_retired();
  bool claim_block(const LiveSourceConfig& config);
#endif
#if defined(ZPM_HAVE_PCAP)
  pcap_t* pcap = nullptr;
  std::vector<RawPacket> storage;  // reused batch copies (pcap yields one
                                   // borrowed packet at a time)
#endif
  bool using_pcap = false;
};

#if defined(ZPM_HAVE_AF_PACKET)
/// Opens the AF_PACKET TPACKET_V3 ring. On failure sets `error` and
/// leaves the ring closed.
bool LiveSource::Impl::open_af_packet(const LiveSourceConfig& config,
                                      std::string& error) {
  Impl& impl = *this;
  unsigned ifindex = if_nametoindex(config.interface.c_str());
  if (ifindex == 0) {
    error = "live capture: unknown interface " + config.interface;
    return false;
  }
  int sock_fd = ::socket(AF_PACKET, SOCK_RAW, htons(ETH_P_ALL));
  if (sock_fd < 0) {
    error = std::string("live capture: socket(AF_PACKET): ") +
            std::strerror(errno);
    return false;
  }
  int version = TPACKET_V3;
  if (::setsockopt(sock_fd, SOL_PACKET, PACKET_VERSION, &version, sizeof(version)) <
      0) {
    error = std::string("live capture: PACKET_VERSION: ") +
            std::strerror(errno);
    ::close(sock_fd);
    return false;
  }
  tpacket_req3 req{};
  req.tp_block_size = static_cast<std::uint32_t>(config.block_size);
  req.tp_block_nr = static_cast<std::uint32_t>(config.block_count);
  req.tp_frame_size = 2048;  // v3 packs variable-length frames; nominal
  req.tp_frame_nr = static_cast<std::uint32_t>(
      config.block_size / 2048 * config.block_count);
  req.tp_retire_blk_tov = config.block_timeout_ms;
  if (::setsockopt(sock_fd, SOL_PACKET, PACKET_RX_RING, &req, sizeof(req)) < 0) {
    error = std::string("live capture: PACKET_RX_RING: ") +
            std::strerror(errno);
    ::close(sock_fd);
    return false;
  }
  std::size_t map_len = config.block_size * config.block_count;
  void* mem = ::mmap(nullptr, map_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_LOCKED, sock_fd, 0);
  if (mem == MAP_FAILED) {
    // MAP_LOCKED can exceed RLIMIT_MEMLOCK; retry unlocked before failing.
    mem = ::mmap(nullptr, map_len, PROT_READ | PROT_WRITE, MAP_SHARED, sock_fd, 0);
  }
  if (mem == MAP_FAILED) {
    error = std::string("live capture: mmap ring: ") + std::strerror(errno);
    ::close(sock_fd);
    return false;
  }
  sockaddr_ll addr{};
  addr.sll_family = AF_PACKET;
  addr.sll_protocol = htons(ETH_P_ALL);
  addr.sll_ifindex = static_cast<int>(ifindex);
  if (::bind(sock_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    error = std::string("live capture: bind ") + config.interface + ": " +
            std::strerror(errno);
    ::munmap(mem, map_len);
    ::close(sock_fd);
    return false;
  }
  impl.fd = sock_fd;
  impl.ring = static_cast<std::uint8_t*>(mem);
  impl.ring_len = map_len;
  impl.block_cursor = 0;
  impl.blk = nullptr;
  impl.frames_left = 0;
  impl.retired.clear();
  return true;
}

void LiveSource::Impl::close_af_packet() {
  Impl& impl = *this;
  if (impl.ring != nullptr) {
    ::munmap(impl.ring, impl.ring_len);
    impl.ring = nullptr;
  }
  if (impl.fd >= 0) {
    ::close(impl.fd);
    impl.fd = -1;
  }
  impl.blk = nullptr;
  impl.frames_left = 0;
  impl.retired.clear();  // ring unmapped; nothing to hand back
}

/// Releases the drained block back to the kernel immediately. Only safe
/// when no returned views point into it (e.g. an empty timeout-retired
/// block); otherwise use retire_block().
void LiveSource::Impl::release_block() {
  Impl& impl = *this;
  if (impl.blk == nullptr) return;
  __atomic_store_n(&impl.blk->hdr.bh1.block_status, TP_STATUS_KERNEL,
                   __ATOMIC_RELEASE);
  impl.blk = nullptr;
  impl.frames_left = 0;
}

/// Parks the drained block on the retired list instead of releasing it:
/// the batch just returned still holds views into it, and the kernel
/// must not overwrite it until the next poll_batch() call.
void LiveSource::Impl::retire_block() {
  Impl& impl = *this;
  if (impl.blk == nullptr) return;
  impl.retired.push_back(impl.blk);
  impl.blk = nullptr;
  impl.frames_left = 0;
}

/// Hands all retired blocks back to the kernel. Called at the top of
/// poll_batch(), once the previous batch's views are dead.
void LiveSource::Impl::release_retired() {
  for (tpacket_block_desc* desc : retired)
    __atomic_store_n(&desc->hdr.bh1.block_status, TP_STATUS_KERNEL,
                     __ATOMIC_RELEASE);
  retired.clear();
}

/// Claims the next kernel-filled block, if any.
bool LiveSource::Impl::claim_block(const LiveSourceConfig& config) {
  Impl& impl = *this;
  auto* desc = reinterpret_cast<tpacket_block_desc*>(
      impl.ring + impl.block_cursor * config.block_size);
  std::uint32_t status =
      __atomic_load_n(&desc->hdr.bh1.block_status, __ATOMIC_ACQUIRE);
  if ((status & TP_STATUS_USER) == 0) return false;
  impl.block_cursor = (impl.block_cursor + 1) % config.block_count;
  impl.blk = desc;
  impl.frames_left = desc->hdr.bh1.num_pkts;
  impl.frame = reinterpret_cast<const std::uint8_t*>(desc) +
               desc->hdr.bh1.offset_to_first_pkt;
  if (impl.frames_left == 0) release_block();  // timeout-retired, empty
  return true;
}
#endif  // ZPM_HAVE_AF_PACKET

LiveSource::LiveSource(LiveSourceConfig config) : config_(std::move(config)) {
  open();
}

LiveSource::~LiveSource() { close(); }

void LiveSource::open() {
  ok_ = false;
  impl_ = std::make_unique<Impl>();
  if (config_.interface.empty()) {
    error_ = "live capture: no interface configured";
    return;
  }
#if defined(ZPM_HAVE_AF_PACKET)
  if (!config_.prefer_pcap) {
    if (impl_->open_af_packet(config_, error_)) {
      ok_ = true;
      return;
    }
  }
#endif
#if defined(ZPM_HAVE_PCAP)
  {
    char errbuf[PCAP_ERRBUF_SIZE] = {0};
    impl_->pcap = pcap_open_live(config_.interface.c_str(), 65535, 1,
                                 config_.poll_timeout_ms, errbuf);
    if (impl_->pcap != nullptr) {
      impl_->using_pcap = true;
      ok_ = true;
      error_.clear();
      return;
    }
    if (error_.empty())
      error_ = std::string("live capture: pcap_open_live: ") + errbuf;
  }
#endif
  if (error_.empty())
    error_ =
        "live capture unsupported on this platform "
        "(no AF_PACKET; built without libpcap)";
}

void LiveSource::close() {
  if (!impl_) return;
#if defined(ZPM_HAVE_PCAP)
  if (impl_->pcap != nullptr) {
    pcap_close(impl_->pcap);
    impl_->pcap = nullptr;
  }
#endif
#if defined(ZPM_HAVE_AF_PACKET)
  impl_->close_af_packet();
#endif
  impl_.reset();
}

bool LiveSource::reopen() {
  close();
  open();
  return ok_;
}

std::string_view LiveSource::backend() const {
  if (!ok_) return "none";
  if (impl_ && impl_->using_pcap) return "pcap-live";
  return "af_packet-v3";
}

SourceStatus LiveSource::poll_batch(std::vector<RawPacketView>& out,
                                    std::size_t max) {
  out.clear();
  if (!ok_) return SourceStatus::Error;
#if defined(ZPM_HAVE_PCAP)
  if (impl_->using_pcap) {
    // pcap yields one borrowed packet per call; batch by copying into
    // reused storage (capacity persists, steady state allocation-free).
    if (impl_->storage.size() < max) impl_->storage.resize(max);
    std::size_t n = 0;
    while (n < max) {
      pcap_pkthdr* hdr = nullptr;
      const u_char* data = nullptr;
      int rc = pcap_next_ex(impl_->pcap, &hdr, &data);
      if (rc == 0) break;  // timeout
      if (rc != 1) {
        if (n > 0) break;
        error_ = std::string("live capture: ") + pcap_geterr(impl_->pcap);
        ok_ = false;
        return SourceStatus::Error;
      }
      RawPacket& slot = impl_->storage[n];
      slot.ts = util::Timestamp::from_pcap(
          static_cast<std::uint32_t>(hdr->ts.tv_sec),
          static_cast<std::uint32_t>(hdr->ts.tv_usec));
      slot.data.assign(data, data + hdr->caplen);
      slot.orig_len = hdr->len > hdr->caplen ? hdr->len : 0;
      out.push_back(as_view(slot));
      ++n;
    }
    packets_read_ += n;
    return n > 0 ? SourceStatus::Batch : SourceStatus::Idle;
  }
#endif
#if defined(ZPM_HAVE_AF_PACKET)
  // The previous batch's views are dead as of this call (documented
  // contract), so blocks fully drained by that batch can now go back to
  // the kernel. A partially-drained block stays claimed either way.
  impl_->release_retired();
  if (impl_->blk == nullptr && !impl_->claim_block(config_)) {
    pollfd pfd{};
    pfd.fd = impl_->fd;
    pfd.events = POLLIN | POLLERR;
    int rc = ::poll(&pfd, 1, config_.poll_timeout_ms);
    if (rc < 0 && errno != EINTR) {
      error_ = std::string("live capture: poll: ") + std::strerror(errno);
      ok_ = false;
      return SourceStatus::Error;
    }
    if (!impl_->claim_block(config_)) return SourceStatus::Idle;
  }
  std::size_t n = 0;
  while (n < max && impl_->blk != nullptr) {
    while (n < max && impl_->frames_left > 0) {
      const auto* hdr = reinterpret_cast<const tpacket3_hdr*>(impl_->frame);
      RawPacketView view;
      view.ts = util::Timestamp::from_pcap(hdr->tp_sec,
                                           (hdr->tp_nsec + 500) / 1000);
      view.data = std::span<const std::uint8_t>(impl_->frame + hdr->tp_mac,
                                                hdr->tp_snaplen);
      view.orig_len = hdr->tp_len > hdr->tp_snaplen ? hdr->tp_len : 0;
      out.push_back(view);
      ++n;
      --impl_->frames_left;
      impl_->frame += hdr->tp_next_offset;
    }
    if (impl_->frames_left == 0) {
      impl_->retire_block();  // views in `out` still point into it
      if (n < max) impl_->claim_block(config_);  // drain the next ready block
    }
  }
  packets_read_ += n;
  return n > 0 ? SourceStatus::Batch : SourceStatus::Idle;
#else
  (void)max;
  return SourceStatus::Error;
#endif
}

LiveSourceStats LiveSource::stats() const {
#if defined(ZPM_HAVE_AF_PACKET)
  if (impl_ && impl_->fd >= 0) {
    tpacket_stats_v3 ks{};
    socklen_t len = sizeof(ks);
    if (::getsockopt(impl_->fd, SOL_PACKET, PACKET_STATISTICS, &ks, &len) ==
        0) {
      impl_->stats.kernel_packets += ks.tp_packets;
      impl_->stats.kernel_drops += ks.tp_drops;
    }
    return impl_->stats;
  }
#endif
  return {};
}

// ---------------------------------------------------------------------------
// ReplayLiveSource

ReplayLiveSource::ReplayLiveSource(ReplayLiveSourceConfig config)
    : config_(std::move(config)),
      trace_(std::make_unique<TraceSource>(config_.path)) {
  if (!trace_->ok()) {
    error_ = "replay: cannot open " + config_.path + " (" + trace_->error() + ")";
    return;
  }
  // A mapped trace's views stay valid while trace_ lives, so the index
  // is the views themselves. Unmappable input reuses its batch storage,
  // so each batch is copied out before the next read.
  const bool mapped = trace_->mapped();
  std::vector<RawPacketView> batch;
  while (trace_->next_batch(batch, 4096) > 0) {
    if (mapped) {
      index_.insert(index_.end(), batch.begin(), batch.end());
    } else {
      for (const auto& view : batch) owned_.push_back(view.to_owned());
    }
  }
  if (!trace_->ok()) {
    error_ = "replay: " + config_.path + ": " + trace_->error();
    return;
  }
  if (!mapped) {
    index_.reserve(owned_.size());
    for (const auto& pkt : owned_) index_.push_back(as_view(pkt));
    trace_.reset();  // the copies back the views; release the reader
  }
  if (index_.empty()) {
    error_ = "replay: " + config_.path + " contains no records";
    return;
  }
  util::Duration span = index_.back().ts - index_.front().ts;
  if (span < util::Duration::micros(0)) span = util::Duration::micros(0);
  stride_ = span + config_.loop_gap;
  ok_ = true;
}

SourceStatus ReplayLiveSource::poll_batch(std::vector<RawPacketView>& out,
                                          std::size_t max) {
  out.clear();
  if (!ok_) return SourceStatus::Error;
  const std::uint64_t per_loop = index_.size();
  const bool infinite = config_.loops == 0;
  const std::uint64_t budget =
      infinite ? ~std::uint64_t{0} : config_.loops * per_loop;
  if (position_ >= budget) return SourceStatus::EndOfStream;
  if (stalled_ ||
      (config_.stall_after_packets > 0 &&
       position_ >= config_.stall_after_packets)) {
    stalled_ = true;
    return SourceStatus::Idle;
  }
  std::size_t want = max;
  if (config_.stall_after_packets > 0) {
    // Stall at exactly the trigger: never deliver packets past it in
    // the same batch, so the stall position is deterministic.
    const std::uint64_t until = config_.stall_after_packets - position_;
    if (until < want) want = static_cast<std::size_t>(until);
  }
  if (config_.pace_pps > 0) {
    // Wall-clock pacing: deliver no faster than pace_pps. Affects batch
    // *timing and sizing* only; the packet sequence is unchanged. The
    // allowance is relative to pace_base_, the position where pacing
    // (re)started — skip_to()/reopen() re-base so a resumed source is
    // paced on packets delivered since resume, not absolute position.
    std::int64_t now = steady_now_us();
    if (!pace_started_) {
      pace_started_ = true;
      pace_epoch_us_ = now;
      pace_base_ = position_;
    }
    const std::uint64_t allowed =
        pace_base_ +
        static_cast<std::uint64_t>(static_cast<double>(now - pace_epoch_us_) *
                                   config_.pace_pps / 1e6);
    if (position_ >= allowed) return SourceStatus::Idle;
    std::uint64_t slack = allowed - position_;
    if (slack < want) want = static_cast<std::size_t>(slack);
  }
  std::size_t n = 0;
  while (n < want && position_ < budget) {
    const std::uint64_t loop = position_ / per_loop;
    RawPacketView view = index_[position_ % per_loop];
    view.ts = view.ts + stride_ * static_cast<std::int64_t>(loop);
    out.push_back(view);
    ++position_;
    ++n;
  }
  return SourceStatus::Batch;  // want >= 1 and budget > position_ on entry
}

bool ReplayLiveSource::reopen() {
  if (!ok_) return false;
  // One-shot hook: a reopened source is "fixed" — disarm the trigger
  // so the replay resumes where it stalled instead of re-stalling on
  // the very next poll.
  stalled_ = false;
  config_.stall_after_packets = 0;
  pace_started_ = false;  // re-base pacing on the next poll
  ++reopens_;
  return true;
}

bool ReplayLiveSource::skip_to(std::uint64_t target) {
  if (!ok_) return false;
  if (config_.loops != 0 && target > config_.loops * index_.size())
    return false;
  position_ = target;
  pace_started_ = false;  // re-base pacing on the next poll
  return true;
}

}  // namespace zpm::net
