#include "analysis/tables.h"

#include <algorithm>

namespace zpm::analysis {

namespace {

std::string encap_type_label(std::uint8_t value) {
  switch (static_cast<zoom::MediaEncapType>(value)) {
    case zoom::MediaEncapType::Video: return "RTP: Video";
    case zoom::MediaEncapType::Audio: return "RTP: Audio";
    case zoom::MediaEncapType::ScreenShare: return "RTP: Screen Share";
    case zoom::MediaEncapType::RtcpSr: return "RTCP: SR";
    case zoom::MediaEncapType::RtcpSrSdes: return "RTCP: SR + SDES";
    default: return "unknown (" + std::to_string(value) + ")";
  }
}

std::string media_kind_label(zoom::MediaKind kind) {
  switch (kind) {
    case zoom::MediaKind::Video: return "Video (16)";
    case zoom::MediaKind::Audio: return "Audio (15)";
    case zoom::MediaKind::ScreenShare: return "Screen Share (13)";
  }
  return "?";
}

}  // namespace

std::vector<EncapTypeRow> table2_rows(const core::AnalyzerCounters& counters) {
  // Denominator: all Zoom UDP packets (server + P2P), as in the paper.
  double total_packets =
      static_cast<double>(counters.server_udp_packets + counters.p2p_udp_packets);
  const auto encap_types = counters.encap_types();
  double total_bytes = 0;
  for (const auto& [value, tally] : encap_types)
    total_bytes += static_cast<double>(tally.bytes);
  // Undecoded packets also carry bytes; approximate the byte denominator
  // with zoom_bytes-scaled share of UDP payloads when available.
  double denom_bytes = static_cast<double>(counters.zoom_bytes);
  if (denom_bytes <= 0) denom_bytes = total_bytes;

  std::vector<EncapTypeRow> rows;
  for (const auto& [value, tally] : encap_types) {
    EncapTypeRow row;
    row.value = value;
    row.packet_type = encap_type_label(value);
    row.offset = zoom::media_payload_offset(value);
    row.pct_packets =
        total_packets > 0 ? static_cast<double>(tally.packets) / total_packets : 0.0;
    row.pct_bytes = denom_bytes > 0 ? static_cast<double>(tally.bytes) / denom_bytes : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const EncapTypeRow& a, const EncapTypeRow& b) {
    return a.pct_packets > b.pct_packets;
  });
  return rows;
}

std::vector<PayloadTypeRow> table3_rows(const core::AnalyzerCounters& counters) {
  const auto payload_types = counters.payload_types();
  double total_packets = 0;
  double total_bytes = 0;
  for (const auto& [key, tally] : payload_types) {
    total_packets += static_cast<double>(tally.packets);
    total_bytes += static_cast<double>(tally.bytes);
  }
  std::vector<PayloadTypeRow> rows;
  for (const auto& [key, tally] : payload_types) {
    auto kind = static_cast<zoom::MediaKind>(key.first);
    PayloadTypeRow row;
    row.media_type = media_kind_label(kind);
    row.rtp_pt = key.second;
    row.description = std::string(zoom::payload_type_description(kind, key.second));
    row.pct_packets =
        total_packets > 0 ? static_cast<double>(tally.packets) / total_packets : 0.0;
    row.pct_bytes = total_bytes > 0 ? static_cast<double>(tally.bytes) / total_bytes : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const PayloadTypeRow& a, const PayloadTypeRow& b) {
              return a.pct_packets > b.pct_packets;
            });
  return rows;
}

bool health_all_clear(const core::AnalyzerHealth& health) {
  core::AnalyzerHealth h = health;
  h.frontend_rejected = 0;
  h.sketch_evicted = 0;
  h.overload_shed_l1 = 0;
  h.overload_shed_l2 = 0;
  h.overload_shed_l3 = 0;
  h.overload_shed_l4 = 0;
  h.ring_wait_spins = 0;
  h.source_stalls = 0;
  h.kernel_packets = 0;
  h.kernel_drops = 0;
  h.offload_covered_packets = 0;
  h.offload_collisions = 0;
  h.offload_evictions = 0;
  return h.all_clear();
}

std::vector<HealthRow> health_rows(const core::AnalyzerHealth& h) {
  std::vector<HealthRow> rows;
  auto add = [&](std::string_view category, std::string_view description,
                 std::uint64_t count, bool dropped) {
    if (count > 0) rows.push_back(HealthRow{category, description, count, dropped});
  };
  add("truncated-l2", "frame shorter than an Ethernet header", h.truncated_l2, true);
  add("non-ipv4", "non-IPv4 ethertype (ARP/IPv6/...; benign)", h.non_ipv4, false);
  add("bad-l3", "truncated or inconsistent IPv4 header", h.bad_l3, true);
  add("ip-fragments", "non-first IP fragments (no L4 header)", h.ip_fragments, false);
  add("unsupported-l4", "IP protocol other than UDP/TCP (benign)", h.unsupported_l4,
      false);
  add("bad-l4", "truncated or inconsistent UDP/TCP header", h.bad_l4, true);
  add("snaplen-truncated", "captured bytes < reported wire length",
      h.snaplen_truncated, false);
  add("non-monotonic-ts", "timestamp regressed vs. previous record",
      h.non_monotonic_ts, false);
  add("frontend-rejected", "screened out by the capture front end (never decoded)",
      h.frontend_rejected, false);
  add("sketch-evicted", "sketch-tier flow churn: heavy-hitter evictions + demotions",
      h.sketch_evicted, false);
  add("bad-sfu-encap", "server payload below the 8-byte SFU encap", h.bad_sfu_encap,
      true);
  add("bad-media-encap", "known encap type with truncated header", h.bad_media_encap,
      true);
  add("malformed-rtp", "media encap promised RTP, parse failed", h.malformed_rtp,
      true);
  add("malformed-rtcp", "RTCP encap with empty compound parse", h.malformed_rtcp,
      true);
  add("malformed-stun", "port-3478 exchange that is not STUN", h.malformed_stun,
      true);
  add("unknown-payload-type", "RTP payload type outside Table 3",
      h.unknown_payload_type, false);
  add("quarantined-flows", "flows exceeding the malformed-streak threshold",
      h.quarantined_flows, false);
  add("quarantined-packets", "packets skipped on quarantined flows",
      h.quarantined_packets, true);
  add("epoch-evicted-flows", "flow state retired at epoch rotation (bounded memory)",
      h.epoch_evicted_flows, false);
  add("epoch-evicted-meetings", "meeting state retired at epoch rotation",
      h.epoch_evicted_meetings, false);
  add("overload-shed-l1", "overload L1: front-end rejects dropped pre-dispatch",
      h.overload_shed_l1, false);
  add("overload-shed-l2", "overload L2: non-Zoom-candidate admission sampling",
      h.overload_shed_l2, false);
  add("overload-shed-l3", "overload L3: media-flow packet sampling (degraded)",
      h.overload_shed_l3, false);
  add("overload-shed-l4", "overload L4: whole-batch head-drop + ring sheds",
      h.overload_shed_l4, false);
  add("ring-wait-spins", "producer spins on a full shard ring (timing-dependent)",
      h.ring_wait_spins, false);
  add("source-stalls", "watchdog-detected source stalls + reopens (timing-dependent)",
      h.source_stalls, false);
  add("kernel-packets", "packets seen at the kernel capture point (live gauge)",
      h.kernel_packets, false);
  add("kernel-drops", "kernel ring drops before the daemon saw the packet",
      h.kernel_drops, false);
  add("offload-covered", "metric work absorbed by the data-plane offload",
      h.offload_covered_packets, false);
  add("offload-collisions", "offload probe/telemetry register slot overwrites",
      h.offload_collisions, false);
  add("offload-evictions", "offload jitter scratch slots lost to colliding streams",
      h.offload_evictions, false);
  return rows;
}

std::vector<HealthRow> frontend_rows(const capture::FrontEndStats& s) {
  std::vector<HealthRow> rows;
  rows.push_back({"frontend-admitted", "pre-classified Zoom-relevant, fast dispatch",
                  s.admitted, false});
  rows.push_back({"frontend-rejected", "screened out without header decode",
                  s.rejected, false});
  rows.push_back({"frontend-full-parse", "uncertain, routed to the normal decode path",
                  s.full_parse, false});
  auto add = [&](std::string_view category, std::string_view description,
                 std::uint64_t count) {
    if (count > 0) rows.push_back(HealthRow{category, description, count, false});
  };
  add("frontend-zoom-shaped", "admits matching a Zoom payload shape", s.zoom_shaped);
  add("frontend-stun-flagged", "admits touching the STUN port", s.stun_flagged);
  add("frontend-simd-batches", "batches classified by the SWAR/SSE2 probe",
      s.simd_batches);
  add("frontend-scalar-batches", "batches classified by the scalar reference probe",
      s.scalar_batches);
  add("offload-covered", "admits absorbed by the data-plane metric offload",
      s.offload_covered);
  add("offload-collisions", "offload probe/telemetry register slot overwrites",
      s.offload_collisions);
  add("offload-evictions", "offload jitter scratch slots lost to colliding streams",
      s.offload_evictions);
  return rows;
}

}  // namespace zpm::analysis
