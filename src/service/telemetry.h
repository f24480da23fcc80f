// Runtime telemetry for the admission-control service
// ("vc2m-metrics-timeline/1") — docs/telemetry.md.
//
// The timeline is a framed, checksummed sequence of metrics samples using
// the journal framing (service/journal.h): a header naming the schema, the
// config digest, and the sampling cadence, then one frame per sample. A
// sample is taken every `every` *decisions* — journal-record events in
// virtual time — so the file is a pure function of (trace, seed, config,
// every): bit-identical at any --jobs/--inner-jobs and reproduced exactly
// by a crash + --recover run. Reopen is torn-tail tolerant like the
// journal: a partial trailing frame (or a frame that fails the strict
// sample parse) truncates back to the last good sample with a warning,
// never a crash.
//
// The span ring is the post-mortem half: a bounded buffer of the last K
// request spans, dumped as "vc2m-span-dump/1" text next to the journal
// when the service crashes or is interrupted. Because a span is pushed
// only after its journal record is durable, the dump's tail always
// matches the journal's tail.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/request_span.h"
#include "util/log_histogram.h"

namespace vc2m::service {

inline constexpr const char* kTimelineSchema = "vc2m-metrics-timeline/1";
inline constexpr const char* kSpanDumpSchema = "vc2m-span-dump/1";

// The sample's scalar fields, listed once: X(type, member, payload key,
// CSV column). The struct members, serialize(), parse_metrics_sample()
// and the header and rows of `vc2m timeline --csv` are generated from
// this table, in this order.
//
//  - index: 0-based sample number; served: decisions (journal records)
//    so far; vt_ns: virtual time of the last decision.
//  - queue_depth/retry_depth: the request queues at sampling time;
//    est_ns_per_task: the EWMA solver-cost estimate.
//  - arrivals .. commits: the outcome totals of docs/telemetry.md.
//  - dbf_evals, budget_evals, admission_tests: the cumulative
//    AllocCounters dbf_evaluations, budget_evaluations and
//    admission_tests.
#define VC2M_SAMPLE_FIELDS(X)                                           \
  X(std::uint64_t, index, "sample", "sample")                           \
  X(std::uint64_t, served, "served", "served")                          \
  X(std::int64_t, vt_ns, "vt_ns", "vt_ns")                              \
  X(std::uint64_t, queue_depth, "queue", "queue_depth")                 \
  X(std::uint64_t, retry_depth, "retry", "retry_depth")                 \
  X(std::int64_t, est_ns_per_task, "est", "est_ns_per_task")            \
  X(std::uint64_t, arrivals, "arrivals", "arrivals")                    \
  X(std::uint64_t, admitted, "admitted", "admitted")                    \
  X(std::uint64_t, rejected, "rejected", "rejected")                    \
  X(std::uint64_t, probe_rejected, "probe_rejected", "probe_rejected")  \
  X(std::uint64_t, deferred, "deferred", "deferred")                    \
  X(std::uint64_t, timed_out, "timed_out", "timed_out")                 \
  X(std::uint64_t, shed, "shed", "shed")                                \
  X(std::uint64_t, downgrades, "downgrades", "downgrades")              \
  X(std::uint64_t, backpressure, "backpressure", "backpressure")        \
  X(std::uint64_t, commits, "commits", "commits")                       \
  X(std::uint64_t, dbf_evals, "dbf", "dbf_evals")                       \
  X(std::uint64_t, budget_evals, "budget", "budget_evals")              \
  X(std::uint64_t, admission_tests, "adm", "admission_tests")

// The per-outcome-class latency histograms (µs), cumulative, after the
// scalars: X(member, payload key). Classes: admitted = {admitted,
// removed, resized}; rejected = {rejected, probe_rejected,
// resize_rejected, not_present, timed_out}; deferred = arrival → defer
// decision; shed = arrival → shed decision. The CSV shows each one's
// count as "<key>_count".
#define VC2M_SAMPLE_HISTOGRAMS(X) \
  X(lat_admitted, "lat_admitted") \
  X(lat_rejected, "lat_rejected") \
  X(lat_deferred, "lat_deferred") \
  X(lat_shed, "lat_shed")

/// One timeline sample: the service's externally observable state after
/// `served` decisions. Every counter is cumulative — including the
/// AllocCounters trio — so any sample stands alone and recovery can resume
/// sampling from a snapshot without reconstructing a delta baseline.
/// Display layers (vc2m timeline --csv) derive deltas when they want them.
struct MetricsSample {
#define VC2M_SAMPLE_MEMBER(type, member, key, column) type member = 0;
  VC2M_SAMPLE_FIELDS(VC2M_SAMPLE_MEMBER)
#undef VC2M_SAMPLE_MEMBER
#define VC2M_SAMPLE_HISTOGRAM(member, key) util::LogHistogram member;
  VC2M_SAMPLE_HISTOGRAMS(VC2M_SAMPLE_HISTOGRAM)
#undef VC2M_SAMPLE_HISTOGRAM
};

/// Exact text round-trip of a histogram's internal state:
/// "<count> <nonpositive> <sum_bits> <min_bits> <max_bits> <npairs>
/// i:c..." with doubles as 16-hex-digit bit patterns. Shared by the
/// timeline samples and the service snapshot.
std::string serialize_histogram(const util::LogHistogram& h);
/// Strict parse; throws util::Error on any malformed field.
util::LogHistogram parse_histogram(std::string_view text);

std::string serialize(const MetricsSample& s);
/// Strict parse; throws util::Error on any malformed field.
MetricsSample parse_metrics_sample(const std::string& payload);

/// "vc2m-metrics-timeline/1|config=<hex16>|every=<N>".
std::string timeline_header_payload(const std::string& config_digest,
                                    std::uint64_t every);

/// Tolerant timeline scan. `header_ok` is false when the file is missing,
/// empty, or its first frame is not a timeline header. A frame whose
/// checksum is valid but whose payload fails the strict sample parse ends
/// the valid prefix (with a warning), exactly like a torn tail — the
/// scanner never throws for malformed content.
struct TimelineScan {
  bool exists = false;
  bool header_ok = false;
  std::string config_digest;
  std::uint64_t every = 0;
  std::vector<MetricsSample> samples;
  std::vector<std::string> raw;   ///< serialized payloads, one per sample
  std::uint64_t valid_bytes = 0;  ///< prefix covering header + samples
  bool torn = false;              ///< trailing bytes past the prefix
  std::vector<std::string> warnings;
};

TimelineScan scan_timeline(const std::string& path);

/// Bounded ring of the most recent request spans (oldest evicted first).
/// capacity 0 disables it (push is a no-op).
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : cap_(capacity) {}

  void push(const obs::RequestSpan& s) {
    if (cap_ == 0) return;
    if (buf_.size() < cap_) {
      buf_.push_back(s);
    } else {
      buf_[next_] = s;
      next_ = (next_ + 1) % cap_;
    }
  }

  std::size_t size() const { return buf_.size(); }

  /// Spans oldest → newest.
  std::vector<obs::RequestSpan> snapshot() const {
    std::vector<obs::RequestSpan> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i)
      out.push_back(buf_[(next_ + i) % buf_.size()]);
    return out;
  }

 private:
  std::size_t cap_ = 0;
  std::vector<obs::RequestSpan> buf_;
  std::size_t next_ = 0;  ///< eviction cursor once full
};

/// Durable ring dump: "vc2m-span-dump/1 <count>" then one serialized span
/// per line. Written with write_file_durable; throws on I/O failure.
void write_span_dump(const std::string& path, const SpanRing& ring);
/// Strict re-read; throws util::Error on malformed content.
std::vector<obs::RequestSpan> read_span_dump(const std::string& path);

/// Deterministic multi-line stats snapshot (the --stats-every / SIGUSR1
/// rendering): virtual-time quantities only, identical for the same
/// sample on every machine.
std::string render_stats_snapshot(const MetricsSample& s);

}  // namespace vc2m::service
