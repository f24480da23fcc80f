#include "service/report.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"

namespace vc2m::service {

void write_serve_report(std::ostream& os, const ServeReport& r) {
  os << "{\n";
  os << "\"schema\": \"" << obs::json::escape(r.schema) << "\",\n";
  os << "\"git_rev\": \"" << obs::json::escape(r.git_rev) << "\",\n";
  os << "\"trace\": \"" << obs::json::escape(r.trace) << "\",\n";
  os << "\"platform\": \"" << obs::json::escape(r.platform) << "\",\n";
  os << "\"seed\": " << r.seed << ",\n";
  os << "\"config\": {\"deadline_us\": " << r.deadline_us
     << ", \"shed_policy\": \"" << obs::json::escape(r.shed_policy)
     << "\", \"queue_cap\": " << r.queue_cap
     << ", \"max_retries\": " << r.max_retries
     << ", \"backoff_us\": " << r.backoff_us
     << ", \"snapshot_every\": " << r.snapshot_every << "},\n";
  os << "\"totals\": {\"requests\": " << r.requests
     << ", \"arrivals\": " << r.arrivals << ", \"admitted\": " << r.admitted
     << ", \"rejected\": " << r.rejected
     << ", \"probe_rejected\": " << r.probe_rejected
     << ", \"removed\": " << r.removed << ", \"resized\": " << r.resized
     << ", \"resize_rejected\": " << r.resize_rejected
     << ", \"not_present\": " << r.not_present
     << ", \"deferred\": " << r.deferred << ", \"retries\": " << r.retries
     << ", \"shed\": " << r.shed << ", \"timed_out\": " << r.timed_out
     << ", \"downgrades\": " << r.downgrades << ", \"commits\": " << r.commits
     << ", \"snapshots\": " << r.snapshots << "},\n";
  os << "\"queue\": {\"max_depth\": " << r.queue_max_depth
     << ", \"backpressure\": " << r.backpressure << "},\n";
  os << "\"decisions\": {\"events\": " << r.decision_events
     << ", \"dropped\": " << r.decision_dropped << "},\n";
  os << "\"latency_us\": {\"admitted\": ";
  obs::write_histogram_summary(os, r.latency_admitted_us);
  os << ", \"rejected\": ";
  obs::write_histogram_summary(os, r.latency_rejected_us);
  os << ", \"deferred\": ";
  obs::write_histogram_summary(os, r.latency_deferred_us);
  os << ", \"shed\": ";
  obs::write_histogram_summary(os, r.latency_shed_us);
  os << "},\n";
  os << "\"state\": {\"vms\": " << r.vms << ", \"vcpus\": " << r.vcpus
     << ", \"cores_used\": " << r.cores_used << ", \"digest\": \""
     << obs::json::escape(r.digest) << "\"}";
  if (r.interrupted) os << ",\n\"interrupted\": true";
  os << "\n}\n";
}

void write_serve_report_file(const std::string& path, const ServeReport& r) {
  auto f = util::open_output_file(path, "serve report");
  write_serve_report(f, r);
  util::close_output_file(f, path, "serve report");
}

ServeReport read_serve_report(std::istream& is, const std::string& what,
                              std::vector<std::string>* notes) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const obs::json::Value root = obs::json::parse(buf.str(), what);
  obs::json::ObjectReader top(root, what, "report");
  ServeReport r;
  r.schema = top.require_string("schema");
  if (r.schema != kServeReportSchema)
    top.fail_at("schema", "unsupported schema '" + r.schema + "'");
  r.git_rev = top.require_string("git_rev");
  r.trace = top.require_string("trace");
  r.platform = top.require_string("platform");
  r.seed = top.require_int<std::uint64_t>("seed");
  auto cfg = top.require_object("config");
  r.deadline_us = cfg.require_int<std::int64_t>("deadline_us", 0);
  r.shed_policy = cfg.require_string("shed_policy");
  r.queue_cap = cfg.require_int<std::uint64_t>("queue_cap");
  r.max_retries = cfg.require_int<std::uint64_t>("max_retries");
  r.backoff_us = cfg.require_int<std::int64_t>("backoff_us", 0);
  r.snapshot_every = cfg.require_int<std::uint64_t>("snapshot_every");
  auto t = top.require_object("totals");
  r.requests = t.require_int<std::uint64_t>("requests");
  r.arrivals = t.require_int<std::uint64_t>("arrivals");
  r.admitted = t.require_int<std::uint64_t>("admitted");
  r.rejected = t.require_int<std::uint64_t>("rejected");
  r.probe_rejected = t.require_int<std::uint64_t>("probe_rejected");
  r.removed = t.require_int<std::uint64_t>("removed");
  r.resized = t.require_int<std::uint64_t>("resized");
  r.resize_rejected = t.require_int<std::uint64_t>("resize_rejected");
  r.not_present = t.require_int<std::uint64_t>("not_present");
  r.deferred = t.require_int<std::uint64_t>("deferred");
  r.retries = t.require_int<std::uint64_t>("retries");
  r.shed = t.require_int<std::uint64_t>("shed");
  r.timed_out = t.require_int<std::uint64_t>("timed_out");
  r.downgrades = t.require_int<std::uint64_t>("downgrades");
  r.commits = t.require_int<std::uint64_t>("commits");
  r.snapshots = t.require_int<std::uint64_t>("snapshots");
  auto q = top.require_object("queue");
  r.queue_max_depth = q.require_int<std::uint64_t>("max_depth");
  r.backpressure = q.require_int<std::uint64_t>("backpressure");
  auto d = top.require_object("decisions");
  r.decision_events = d.require_int<std::uint64_t>("events");
  r.decision_dropped = d.require_int<std::uint64_t>("dropped");
  auto lat = top.require_object("latency_us");
  const auto latency = [&](const char* key) {
    return obs::read_histogram_summary(lat.require_object(key));
  };
  r.latency_admitted_us = latency("admitted");
  r.latency_rejected_us = latency("rejected");
  r.latency_deferred_us = latency("deferred");
  r.latency_shed_us = latency("shed");
  auto s = top.require_object("state");
  r.vms = s.require_int<std::uint64_t>("vms");
  r.vcpus = s.require_int<std::uint64_t>("vcpus");
  r.cores_used = s.require_int<std::uint64_t>("cores_used");
  r.digest = s.require_string("digest");
  if (const auto* flag =
          top.claim("interrupted", obs::json::Value::Kind::kBool)) {
    if (!flag->boolean)
      top.fail("'interrupted' may only be present as true", flag->offset);
    r.interrupted = true;
  }
  top.finish(notes);
  // Terminal outcomes must account for every enqueued attempt: arrivals plus
  // re-enqueued retries all end in exactly one terminal bucket.
  const std::uint64_t terminal = r.admitted + r.rejected + r.probe_rejected +
                                 r.removed + r.resized + r.resize_rejected +
                                 r.not_present + r.shed + r.timed_out;
  if (!r.interrupted && terminal + r.deferred != r.arrivals + r.retries)
    top.fail_at("totals", "outcome totals do not cover the enqueued attempts");
  return r;
}

ServeReport read_serve_report_file(const std::string& path,
                                   std::vector<std::string>* notes) {
  std::ifstream f(path);
  if (!f.good()) throw util::Error("cannot open serve report '" + path + "'");
  return read_serve_report(f, path, notes);
}

}  // namespace vc2m::service
