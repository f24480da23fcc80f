// Reader robustness: every artifact reader, fed truncated and byte-flipped
// copies of a document its writer produced, either parses or throws
// util::Error — no other exception, no crash, and (under scripts/check.sh
// address / undefined) no sanitizer report. Deterministic: fixed seeds.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/bench_report.h"
#include "obs/explain.h"
#include "obs/request_span.h"
#include "reader_checks.h"
#include "scenario/report.h"
#include "service/report.h"
#include "service/service.h"
#include "service/telemetry.h"

namespace vc2m {
namespace {

using codec_test::expect_mutants_parse_or_throw;

template <class Report, class Write>
std::string written(const Report& r, Write write) {
  std::ostringstream os;
  write(os, r);
  return os.str();
}

TEST(ReaderFuzz, BenchReport) {
  obs::BenchReport r;
  r.name = "fuzz";
  r.git_rev = "rev";
  r.config["platform"] = "A";
  r.counters["dbf_evaluations"] = 812;
  obs::PhaseStats phase;
  phase.name = "solve";
  phase.count = 3;
  phase.total_sec = 0.5;
  phase.children.push_back(phase);
  r.phases.children.push_back(phase);
  r.histograms["solve_seconds"] = {10, 0.5, 0.1, 0.9, 0.5, 0.8, 0.85, 0.9};
  r.pool.workers.push_back({4, 1, 0.25, 3});
  expect_mutants_parse_or_throw(
      written(r, obs::write_bench_report), 1, [](const std::string& text) {
        std::istringstream in(text);
        (void)obs::read_bench_report(in);
      });
}

TEST(ReaderFuzz, ExplainReport) {
  obs::ExplainReport r;
  r.strategy = "flat";
  r.git_rev = "rev";
  r.config["tasks"] = "3";
  r.cores_used = 1;
  r.headroom.cores.push_back({0, 4, 3, 2, 0.75, 0.25, 1, 1});
  r.rejections.push_back(
      {2, obs::DecisionConstraint::kCoreOverUtilized, 0.5, "detail"});
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kBinPack;
  e.vm = 1;
  e.value = 1.25;
  r.events.assign(3, e);
  expect_mutants_parse_or_throw(
      written(r, obs::write_explain_report), 2, [](const std::string& text) {
        std::istringstream in(text);
        (void)obs::read_explain_report(in);
      });
}

TEST(ReaderFuzz, ServeReport) {
  service::ServeReport r;
  r.git_rev = "rev";
  r.trace = "poisson:requests=3";
  r.platform = "A";
  r.shed_policy = "reject-newest";
  r.requests = r.arrivals = 3;
  r.admitted = 2;
  r.rejected = 1;
  r.latency_admitted_us = {2, 10, 5, 15, 10, 15, 15, 15};
  r.digest = "0123456789abcdef";
  expect_mutants_parse_or_throw(
      written(r, service::write_serve_report), 3,
      [](const std::string& text) {
        std::istringstream in(text);
        std::vector<std::string> notes;
        (void)service::read_serve_report(in, "serve report", &notes);
      });
}

TEST(ReaderFuzz, ScenarioReport) {
  scenario::ScenarioReport r;
  r.git_rev = "rev";
  r.corpus = "scenarios";
  scenario::ScenarioRecord a;
  a.name = "a";
  a.failures = {"digest mismatch"};
  a.rejection_constraints = {"core-over-utilized"};
  scenario::ScenarioRecord b;
  b.name = "b";
  b.schedulable = b.passed = b.simulated = true;
  b.jobs_released = 40;
  r.records = {a, b};
  expect_mutants_parse_or_throw(
      written(r, scenario::write_scenario_report), 4,
      [](const std::string& text) {
        std::istringstream in(text);
        std::vector<std::string> notes;
        (void)scenario::read_scenario_report(in, "scenario report", &notes);
      });
}

TEST(ReaderFuzz, JournalRecord) {
  service::JournalRecord r;
  r.seq = 41;
  r.attempt = 2;
  r.vm = 7;
  r.tasks = 5;
  r.cost_ns = 1200;
  r.latency_ns = -1;
  expect_mutants_parse_or_throw(
      service::serialize(r), 5, [](const std::string& text) {
        (void)service::parse_journal_record(text);
      });
}

TEST(ReaderFuzz, MetricsSample) {
  service::MetricsSample s;
  s.index = 3;
  s.served = 150;
  s.vt_ns = 123456789;
  s.est_ns_per_task = -4;
  for (const double us : {0.0, 3.5, 120.0, 9000.0}) {
    s.lat_admitted.add(us);
    s.lat_shed.add(us * 2);
  }
  expect_mutants_parse_or_throw(
      service::serialize(s), 6, [](const std::string& text) {
        (void)service::parse_metrics_sample(text);
      });
}

TEST(ReaderFuzz, RequestSpan) {
  obs::RequestSpan s;
  s.seq = 9;
  s.attempt = 1;
  s.kind = "admit";
  s.outcome = "deferred";
  s.vm = 3;
  s.queued_ns = 100;
  s.dequeued_ns = 250;
  s.solved_ns = 900;
  s.cost_ns = 650;
  expect_mutants_parse_or_throw(
      obs::serialize(s), 7, [](const std::string& text) {
        (void)obs::parse_request_span(text);
      });
}

}  // namespace
}  // namespace vc2m
