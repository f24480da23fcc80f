#include "service/telemetry.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "service/journal.h"
#include "util/error.h"
#include "util/file.h"
#include "util/parse.h"
#include "util/record.h"

namespace vc2m::service {

namespace {

/// Exact double round-trip as a 16-hex-digit bit pattern (mirrors the
/// service snapshot's encoding).
std::string double_bits(double d) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(d)));
  return buf;
}

double bits_double(std::string_view s) {
  const auto v = s.size() == 16 ? util::parse_int<std::uint64_t>(s, 16)
                                : std::nullopt;
  if (!v)
    throw util::Error("telemetry: bad double bits '" + std::string(s) + "'");
  return std::bit_cast<double>(*v);
}

}  // namespace

std::string serialize_histogram(const util::LogHistogram& h) {
  const auto snap = h.snapshot();
  std::ostringstream os;
  os << snap.count << ' ' << snap.nonpositive << ' ' << double_bits(snap.sum)
     << ' ' << double_bits(snap.min) << ' ' << double_bits(snap.max) << ' '
     << snap.counts.size();
  for (const auto& [i, c] : snap.counts) os << ' ' << i << ':' << c;
  return os.str();
}

util::LogHistogram parse_histogram(std::string_view text) {
  util::RecordReader in(text, ' ', "telemetry histogram");
  const auto count = [&](std::string_view f, const char* what) {
    const auto v = util::parse_u64(f);
    if (!v) in.fail(std::string("bad ") + what + " '" + std::string(f) + "'");
    return *v;
  };
  util::LogHistogram::Snapshot snap;
  snap.count = count(in.next_raw(), "count");
  snap.nonpositive = count(in.next_raw(), "nonpositive");
  snap.sum = bits_double(in.next_raw());
  snap.min = bits_double(in.next_raw());
  snap.max = bits_double(in.next_raw());
  const std::uint64_t pairs = count(in.next_raw(), "pair count");
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const std::string_view cell = in.next_raw();
    const auto colon = cell.find(':');
    if (colon == std::string_view::npos)
      in.fail("bad bucket '" + std::string(cell) + "'");
    snap.counts.emplace_back(count(cell.substr(0, colon), "bucket index"),
                             count(cell.substr(colon + 1), "bucket count"));
  }
  in.finish();
  return util::LogHistogram::from_snapshot(snap);
}

std::string serialize(const MetricsSample& s) {
  std::ostringstream os;
  const char* sep = "";
#define VC2M_WRITE_FIELD(type, member, key, column) \
  os << sep << key "=" << s.member;                 \
  sep = "|";
  VC2M_SAMPLE_FIELDS(VC2M_WRITE_FIELD)
#undef VC2M_WRITE_FIELD
#define VC2M_WRITE_HISTOGRAM(member, key) \
  os << "|" key "=" << serialize_histogram(s.member);
  VC2M_SAMPLE_HISTOGRAMS(VC2M_WRITE_HISTOGRAM)
#undef VC2M_WRITE_HISTOGRAM
  return os.str();
}

MetricsSample parse_metrics_sample(const std::string& payload) {
  util::RecordReader in(payload, '|', "metrics sample");
  MetricsSample s;
#define VC2M_READ_FIELD(type, member, key, column) \
  s.member = in.next_int<type>(key);
  VC2M_SAMPLE_FIELDS(VC2M_READ_FIELD)
#undef VC2M_READ_FIELD
#define VC2M_READ_HISTOGRAM(member, key) \
  s.member = parse_histogram(in.next(key));
  VC2M_SAMPLE_HISTOGRAMS(VC2M_READ_HISTOGRAM)
#undef VC2M_READ_HISTOGRAM
  in.finish();
  return s;
}

std::string timeline_header_payload(const std::string& config_digest,
                                    std::uint64_t every) {
  return frame_header_payload(kTimelineSchema, config_digest, "every", every);
}

TimelineScan scan_timeline(const std::string& path) {
  TimelineScan out;
  FrameScan frames = scan_frames(path);
  out.exists = frames.exists;
  if (!frames.exists) return out;
  out.valid_bytes = frames.valid_bytes;
  out.torn = frames.torn;

  if (!frames.payloads.empty()) {
    const auto h = parse_frame_header(frames.payloads.front(),
                                      kTimelineSchema, "every");
    if (h && h->value > 0) {
      out.config_digest = h->config_digest;
      out.every = h->value;
      out.header_ok = true;
    }
  }
  if (!out.header_ok) {
    out.valid_bytes = 0;
    out.torn = !frames.payloads.empty() || frames.torn;
    return out;
  }

  // A checksum-valid frame whose payload is not a well-formed sample ends
  // the valid prefix exactly like a torn tail would.
  std::uint64_t off = 12 + frames.payloads.front().size();
  for (std::size_t i = 1; i < frames.payloads.size(); ++i) {
    try {
      MetricsSample s = parse_metrics_sample(frames.payloads[i]);
      if (s.index != out.samples.size()) {
        std::ostringstream w;
        w << "timeline sample " << i - 1 << " has index " << s.index
          << " (expected " << out.samples.size()
          << ") — truncating to the last consistent sample";
        out.warnings.push_back(w.str());
        out.valid_bytes = off;
        out.torn = true;
        return out;
      }
      out.samples.push_back(std::move(s));
      out.raw.push_back(frames.payloads[i]);
    } catch (const util::Error& e) {
      std::ostringstream w;
      w << "timeline sample " << i - 1
        << " is malformed — truncating to the last valid sample ("
        << e.what() << ")";
      out.warnings.push_back(w.str());
      out.valid_bytes = off;
      out.torn = true;
      return out;
    }
    off += 12 + frames.payloads[i].size();
  }
  return out;
}

void write_span_dump(const std::string& path, const SpanRing& ring) {
  const auto spans = ring.snapshot();
  std::ostringstream os;
  os << kSpanDumpSchema << ' ' << spans.size() << '\n';
  for (const auto& s : spans) os << obs::serialize(s) << '\n';
  write_file_durable(path, os.str());
}

std::vector<obs::RequestSpan> read_span_dump(const std::string& path) {
  std::ifstream f = util::open_input_file(path, "span dump");
  std::string line;
  VC2M_CHECK_MSG(std::getline(f, line) &&
                     line.rfind(std::string(kSpanDumpSchema) + " ", 0) == 0,
                 "'" << path << "' is not a " << kSpanDumpSchema << " dump");
  const std::string n = line.substr(std::string(kSpanDumpSchema).size() + 1);
  const auto count = util::parse_u64(n);
  VC2M_CHECK_MSG(count, "span dump '" << path << "': bad count '" << n << "'");
  std::vector<obs::RequestSpan> out;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    out.push_back(obs::parse_request_span(line));
  }
  VC2M_CHECK_MSG(out.size() == *count,
                 "span dump '" << path << "': header says " << *count
                               << " spans, found " << out.size());
  return out;
}

std::string render_stats_snapshot(const MetricsSample& s) {
  auto lat = [](const util::LogHistogram& h) {
    char buf[80];
    if (h.empty()) return std::string("-/- (0)");
    std::snprintf(buf, sizeof buf, "%.1f/%.1f (%llu)", h.quantile(0.50),
                  h.quantile(0.95),
                  static_cast<unsigned long long>(h.count()));
    return std::string(buf);
  };
  char vt[40];
  std::snprintf(vt, sizeof vt, "%.3f", static_cast<double>(s.vt_ns) / 1e6);
  std::ostringstream os;
  os << "[vc2m serve] served=" << s.served << " vt_ms=" << vt
     << " queue=" << s.queue_depth << " retry=" << s.retry_depth
     << " est_ns_per_task=" << s.est_ns_per_task << '\n'
     << "  outcomes: arrivals=" << s.arrivals << " admitted=" << s.admitted
     << " rejected=" << s.rejected << " probe_rejected=" << s.probe_rejected
     << " deferred=" << s.deferred << " timed_out=" << s.timed_out
     << " shed=" << s.shed << " downgrades=" << s.downgrades
     << " backpressure=" << s.backpressure << " commits=" << s.commits
     << '\n'
     << "  effort: dbf=" << s.dbf_evals << " budget=" << s.budget_evals
     << " admission=" << s.admission_tests
     << '\n'
     << "  latency_us p50/p95 (count): admitted=" << lat(s.lat_admitted)
     << " rejected=" << lat(s.lat_rejected)
     << " deferred=" << lat(s.lat_deferred) << " shed=" << lat(s.lat_shed)
     << '\n';
  return os.str();
}

}  // namespace vc2m::service
