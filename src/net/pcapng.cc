#include "net/pcapng.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace zpm::net {

namespace {
constexpr std::uint32_t kBlockSectionHeader = 0x0a0d0d0a;
constexpr std::uint32_t kBlockInterface = 0x00000001;
constexpr std::uint32_t kBlockSimplePacket = 0x00000003;
constexpr std::uint32_t kBlockEnhancedPacket = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1a2b3c4d;
constexpr std::uint32_t kMaxBlockLength = 16 * 1024 * 1024;
constexpr std::uint16_t kOptionTsResol = 9;
constexpr std::uint16_t kLinkTypeEthernet = 1;
}  // namespace

PcapNgReader::PcapNgReader(std::istream& in) : in_(&in) {
  ok_ = true;  // validated lazily at the first block
}

PcapNgReader::PcapNgReader(const std::string& path)
    : file_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      in_(file_.get()) {
  if (!file_->is_open()) {
    error_ = "cannot open " + path;
    return;
  }
  ok_ = true;
}

bool PcapNgReader::read_exact(std::uint8_t* out, std::size_t n) {
  in_->read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(n));
  return in_->gcount() == static_cast<std::streamsize>(n);
}

std::uint32_t PcapNgReader::u32(const std::uint8_t* p) const {
  if (swapped_) {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  }
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint16_t PcapNgReader::u16(const std::uint8_t* p) const {
  if (swapped_) return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

bool PcapNgReader::read_section_header(std::uint32_t block_total_length) {
  // Already consumed: type (4) + length (4). Body starts with the
  // byte-order magic.
  std::array<std::uint8_t, 4> magic{};
  if (!read_exact(magic.data(), 4)) {
    error_ = "truncated section header";
    return false;
  }
  std::uint32_t magic_le = std::uint32_t{magic[0]} | (std::uint32_t{magic[1]} << 8) |
                           (std::uint32_t{magic[2]} << 16) |
                           (std::uint32_t{magic[3]} << 24);
  if (magic_le == kByteOrderMagic) {
    swapped_ = false;
  } else if (magic_le == 0x4d3c2b1a) {
    swapped_ = true;
    // Re-read the total length in the correct order.
    std::uint8_t raw[4] = {
        static_cast<std::uint8_t>(block_total_length),
        static_cast<std::uint8_t>(block_total_length >> 8),
        static_cast<std::uint8_t>(block_total_length >> 16),
        static_cast<std::uint8_t>(block_total_length >> 24)};
    block_total_length = u32(raw);
  } else {
    error_ = "bad pcapng byte-order magic";
    return false;
  }
  if (block_total_length < 28 || block_total_length > kMaxBlockLength) {
    error_ = "implausible section header length";
    return false;
  }
  // Skip the rest of the block: version (4), section length (8), options,
  // trailing length (4). 12 bytes of body already consumed (magic is 4 of
  // the 8+4... careful): consumed so far = 8 (type+len) + 4 (magic).
  std::size_t remaining = block_total_length - 12;
  in_->ignore(static_cast<std::streamsize>(remaining));
  if (!in_->good() && !in_->eof()) {
    error_ = "truncated section header body";
    return false;
  }
  // New section: interfaces reset.
  interfaces_.clear();
  return true;
}

bool PcapNgReader::read_interface_block(const std::vector<std::uint8_t>& body) {
  if (body.size() < 8) {
    error_ = "short interface description block";
    return false;
  }
  Interface iface;
  iface.link_type = u16(&body[0]);
  // body[2..3] reserved, body[4..7] snaplen; options follow.
  std::size_t pos = 8;
  while (pos + 4 <= body.size()) {
    std::uint16_t code = u16(&body[pos]);
    std::uint16_t len = u16(&body[pos + 2]);
    pos += 4;
    if (code == 0) break;  // opt_endofopt
    if (pos + len > body.size()) break;
    if (code == kOptionTsResol && len >= 1) {
      std::uint8_t resol = body[pos];
      // Saturate implausibly fine resolutions: a hostile file can
      // declare 2^127 ticks per second, and shifting a 64-bit value by
      // >= 64 (or overflowing the decimal power) is undefined.
      unsigned exponent = resol & 0x7fu;
      if (resol & 0x80) {
        iface.ticks_per_second = exponent >= 64 ? ~0ULL : 1ULL << exponent;
      } else {
        iface.ticks_per_second = 1;
        for (unsigned i = 0; i < exponent && i < 19; ++i)
          iface.ticks_per_second *= 10;
      }
      if (iface.ticks_per_second == 0) iface.ticks_per_second = 1'000'000;
    }
    pos += (len + 3u) & ~3u;  // options padded to 32 bits
  }
  interfaces_.push_back(iface);
  return true;
}

bool PcapNgReader::parse_epb(const std::vector<std::uint8_t>& body,
                             RawPacket& out) {
  if (body.size() < 20) {
    error_ = "short enhanced packet block";
    ok_ = false;
    return false;
  }
  std::uint32_t iface_id = u32(&body[0]);
  std::uint64_t ts = (std::uint64_t{u32(&body[4])} << 32) | u32(&body[8]);
  std::uint32_t captured = u32(&body[12]);
  std::uint32_t original = u32(&body[16]);
  // Size-safe form: `20 + captured` would wrap in 32-bit arithmetic for
  // attacker-chosen captured lengths near UINT32_MAX, bypassing the
  // bounds check and reading far past the block body.
  if (captured > body.size() - 20) {
    error_ = "enhanced packet data exceeds block";
    ok_ = false;
    return false;
  }
  std::uint64_t ticks = 1'000'000;
  if (iface_id < interfaces_.size()) {
    if (interfaces_[iface_id].link_type != kLinkTypeEthernet) return false;
    ticks = interfaces_[iface_id].ticks_per_second;
  }
  out.ts = pcapng_ticks_to_timestamp(ts, ticks);
  out.orig_len = original > captured ? original : 0;
  out.data.assign(body.begin() + 20, body.begin() + 20 + captured);
  ++packets_read_;
  return true;
}

std::optional<RawPacket> PcapNgReader::next() {
  RawPacket pkt;
  if (!next_into(pkt)) return std::nullopt;
  return pkt;
}

bool PcapNgReader::next_into(RawPacket& out) {
  while (ok_) {
    std::array<std::uint8_t, 8> header{};
    in_->read(reinterpret_cast<char*>(header.data()), 8);
    if (in_->gcount() == 0) return false;  // clean EOF
    if (in_->gcount() != 8) {
      ok_ = false;
      error_ = "truncated block header";
      return false;
    }
    // The block type of an SHB is palindromic, so readable either way.
    std::uint32_t type_le = std::uint32_t{header[0]} | (std::uint32_t{header[1]} << 8) |
                            (std::uint32_t{header[2]} << 16) |
                            (std::uint32_t{header[3]} << 24);
    if (type_le == kBlockSectionHeader) {
      std::uint32_t raw_len = std::uint32_t{header[4]} |
                              (std::uint32_t{header[5]} << 8) |
                              (std::uint32_t{header[6]} << 16) |
                              (std::uint32_t{header[7]} << 24);
      if (!read_section_header(raw_len)) {
        ok_ = false;
        return false;
      }
      seen_section_ = true;
      continue;
    }
    if (!seen_section_) {
      // Every pcapng stream must open with a section header block.
      ok_ = false;
      error_ = "not a pcapng stream";
      return false;
    }
    std::uint32_t type = u32(&header[0]);
    std::uint32_t total_len = u32(&header[4]);
    if (total_len < 12 || total_len > kMaxBlockLength || total_len % 4 != 0) {
      ok_ = false;
      error_ = "implausible block length";
      return false;
    }
    body_.resize(total_len - 12);
    if (!read_exact(body_.data(), body_.size())) {
      ok_ = false;
      // Packet-carrying blocks cut off by the end of the file report the
      // same string as the pcap readers (a capture that stopped
      // mid-write is one condition, whatever the container).
      error_ = (type == kBlockEnhancedPacket || type == kBlockSimplePacket)
                   ? "truncated packet"
                   : "truncated block body";
      return false;
    }
    std::array<std::uint8_t, 4> trailer{};
    if (!read_exact(trailer.data(), 4) || u32(trailer.data()) != total_len) {
      ok_ = false;
      error_ = "block trailer mismatch";
      return false;
    }

    switch (type) {
      case kBlockInterface:
        if (!read_interface_block(body_)) {
          ok_ = false;
          return false;
        }
        break;
      case kBlockEnhancedPacket:
        if (parse_epb(body_, out)) return true;
        if (!ok_) return false;
        break;  // non-Ethernet interface: skip
      case kBlockSimplePacket: {
        // SPB: original length (4) + data; timestamp unavailable.
        if (body_.size() < 4) break;
        std::uint32_t orig = u32(&body_[0]);
        std::uint32_t captured =
            std::min<std::uint32_t>(orig, static_cast<std::uint32_t>(body_.size() - 4));
        out.ts = util::Timestamp::from_micros(0);
        out.orig_len = orig > captured ? orig : 0;
        out.data.assign(body_.begin() + 4, body_.begin() + 4 + captured);
        ++packets_read_;
        return true;
      }
      default:
        break;  // unknown block: skip per spec
    }
  }
  return false;
}

namespace {

/// Serves the bytes already read to sniff a capture's format, then the
/// rest of the file. A pipe, FIFO or stdin can be opened only once and
/// never rewound, so the reader has to continue on the sniffed stream.
class SniffedBuf : public std::streambuf {
 public:
  SniffedBuf(std::unique_ptr<std::ifstream> file, std::array<char, 4> head)
      : file_(std::move(file)), head_(head) {
    setg(head_.data(), head_.data(), head_.data() + head_.size());
  }

 protected:
  // Reached only once the head is drained.
  int_type underflow() override { return file_->rdbuf()->sgetc(); }
  int_type uflow() override { return file_->rdbuf()->sbumpc(); }
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::streamsize from_head = std::min<std::streamsize>(n, egptr() - gptr());
    std::memcpy(s, gptr(), static_cast<std::size_t>(from_head));
    gbump(static_cast<int>(from_head));
    if (from_head == n) return n;
    return from_head + file_->rdbuf()->sgetn(s + from_head, n - from_head);
  }

 private:
  std::unique_ptr<std::ifstream> file_;
  std::array<char, 4> head_;
};

/// A streaming reader that owns its sniffed stream.
template <class Reader>
class SniffedCapture final : public PacketSource {
 public:
  SniffedCapture(std::unique_ptr<std::ifstream> file, std::array<char, 4> head)
      : buf_(std::move(file), head), in_(&buf_), reader_(in_) {}
  std::optional<RawPacket> next() override { return reader_.next(); }
  bool next_into(RawPacket& out) override { return reader_.next_into(out); }
  [[nodiscard]] bool ok() const override { return reader_.ok(); }
  [[nodiscard]] const std::string& error() const override { return reader_.error(); }

 private:
  SniffedBuf buf_;
  std::istream in_;
  Reader reader_;
};

}  // namespace

std::unique_ptr<PacketSource> open_capture(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!file->is_open()) return nullptr;
  std::array<char, 4> head{};
  file->read(head.data(), head.size());
  if (file->gcount() != 4) return nullptr;
  const auto byte = [&](std::size_t i) {
    return std::uint32_t{static_cast<std::uint8_t>(head[i])};
  };
  const std::uint32_t magic_le =
      byte(0) | (byte(1) << 8) | (byte(2) << 16) | (byte(3) << 24);
  std::unique_ptr<PacketSource> reader;
  if (magic_le == 0x0a0d0d0a) {
    reader = std::make_unique<SniffedCapture<PcapNgReader>>(std::move(file), head);
  } else if (magic_le == 0xa1b2c3d4 || magic_le == 0xd4c3b2a1 ||
             magic_le == 0xa1b23c4d || magic_le == 0x4d3cb2a1) {
    // Classic pcap magics (either endianness, µs or ns).
    reader = std::make_unique<SniffedCapture<PcapReader>>(std::move(file), head);
  }
  return reader && reader->ok() ? std::move(reader) : nullptr;
}

}  // namespace zpm::net
