// pcapng (pcap Next Generation) reader — the format modern tcpdump and
// Wireshark write by default. Supports Section Header, Interface
// Description, Enhanced Packet and Simple Packet blocks, per-interface
// timestamp resolution, and both byte orders. Unknown block types are
// skipped, as the spec requires.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/pcap.h"

namespace zpm::net {

/// Converts a pcapng 64-bit interface timestamp to the internal
/// microsecond tick, shared by the streaming and mapped readers.
inline util::Timestamp pcapng_ticks_to_timestamp(std::uint64_t ts,
                                                 std::uint64_t ticks) {
  if (ticks == 1'000'000) {
    return util::Timestamp::from_micros(static_cast<std::int64_t>(ts));
  }
  long double micros = static_cast<long double>(ts) /
                       static_cast<long double>(ticks) * 1'000'000.0L;
  // Clamp before the cast: converting a long double beyond the int64
  // range is undefined behaviour, and a hostile file can pick a coarse
  // if_tsresol plus an all-ones timestamp to trigger exactly that.
  constexpr long double kMaxMicros = 9'000'000'000'000'000'000.0L;
  if (micros > kMaxMicros) micros = kMaxMicros;
  return util::Timestamp::from_micros(static_cast<std::int64_t>(micros));
}

/// Abstract packet source: what the analyzer consumes, regardless of
/// capture file format.
class PacketSource {
 public:
  virtual ~PacketSource() = default;
  virtual std::optional<RawPacket> next() = 0;
  /// Reads the next record into `out`, reusing out.data's capacity
  /// where the format allows (the allocation-light form used by the
  /// batched ingest fallback). Returns false at end of file / on error.
  virtual bool next_into(RawPacket& out) {
    auto pkt = next();
    if (!pkt) return false;
    out = std::move(*pkt);
    return true;
  }
  [[nodiscard]] virtual bool ok() const = 0;
  [[nodiscard]] virtual const std::string& error() const = 0;
};

/// Reads pcapng files sequentially.
class PcapNgReader : public PacketSource {
 public:
  explicit PcapNgReader(std::istream& in);
  explicit PcapNgReader(const std::string& path);

  [[nodiscard]] bool ok() const override { return ok_; }
  [[nodiscard]] const std::string& error() const override { return error_; }

  std::optional<RawPacket> next() override;
  bool next_into(RawPacket& out) override;
  [[nodiscard]] std::uint64_t packets_read() const { return packets_read_; }

 private:
  struct Interface {
    std::uint16_t link_type = 0;
    /// Ticks per second of this interface's timestamps.
    std::uint64_t ticks_per_second = 1'000'000;
  };

  bool read_exact(std::uint8_t* out, std::size_t n);
  std::uint32_t u32(const std::uint8_t* p) const;
  std::uint16_t u16(const std::uint8_t* p) const;
  bool read_section_header(std::uint32_t block_total_length);
  bool read_interface_block(const std::vector<std::uint8_t>& body);
  bool parse_epb(const std::vector<std::uint8_t>& body, RawPacket& out);

  std::unique_ptr<std::ifstream> file_;
  std::istream* in_;
  bool ok_ = false;
  bool swapped_ = false;
  bool seen_section_ = false;
  std::vector<Interface> interfaces_;
  std::vector<std::uint8_t> body_;  // reused per-block scratch buffer
  std::uint64_t packets_read_ = 0;
  std::string error_;
};

/// Opens a capture of either format, sniffed from its magic. The file
/// is opened once, so pipes, FIFOs and stdin work too. Returns nullptr
/// when it cannot be opened or is neither pcap nor pcapng.
std::unique_ptr<PacketSource> open_capture(const std::string& path);

}  // namespace zpm::net
