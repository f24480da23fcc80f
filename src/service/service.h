// The crash-safe online admission-control service behind `vc2m serve`.
//
// The service consumes a deterministic request trace (service/trace_gen.h)
// through a single-server virtual-time queue: requests arrive at their
// trace timestamps, wait in a bounded FIFO, and are processed one at a
// time; the virtual cost of each decision is a deterministic function of
// how hard the allocator worked (AllocCounters deltas), so end-to-end
// latencies, queue depths, and every counter in the report are exact
// replayable quantities — a run is a pure function of (trace, seed,
// config), byte-identical on every machine and after every recovery.
//
// Three robustness mechanisms interlock:
//
//  - Transactions. admit/resize/remove move the running state through
//    core::admit_vm / core::resize_vm / core::remove_vm, which work on it
//    in place and hand it back on every outcome; a rejected request comes
//    back byte-identical (the solver rolls its partial placement back), so
//    a decision copies no state, and the per-request decision log records
//    why either way.
//
//  - Crash safety. With --journal, every terminal decision is appended to
//    a checksummed write-ahead journal (service/journal.h) and fsync'd
//    before the service proceeds; every `snapshot_every` commits the full
//    service state is written to <journal>.snap (atomic tmp+rename) and
//    the journal rotates. Recovery (--recover) loads the snapshot, replays
//    the journal — recomputing only the state-mutating decisions and
//    folding the rest from the records — and continues live, reproducing
//    the uninterrupted run bit for bit. Torn or truncated journal tails
//    are truncated back to the last valid record with a warning, never a
//    crash.
//
//  - Overload shedding. A per-request deadline budget downgrades the full
//    solver to a cheap, sound headroom probe when the EWMA cost estimate
//    no longer fits (probe rejections are real rejections; probe passes
//    defer the request with exponential backoff until the retry budget
//    runs out). When the bounded queue overflows, a shed policy picks a
//    victim deterministically: reject-newest drops the incoming request,
//    reject-largest the heaviest queued admit/resize, criticality-aware
//    the heaviest best-effort entry (removes are never shed — they free
//    capacity).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/vm_alloc.h"
#include "model/platform.h"
#include "obs/request_span.h"
#include "service/report.h"
#include "service/trace_gen.h"
#include "util/time.h"

namespace vc2m::service {

inline constexpr const char* kSnapshotSchema = "vc2m-admission-snapshot/1";

/// Victim selection when the bounded queue is full.
enum class ShedPolicy : std::uint8_t {
  kRejectNewest,  ///< drop the incoming request
  kRejectLargest, ///< drop the largest queued admit/resize (newest on ties)
  kCriticality,   ///< drop best-effort (criticality 0) entries first
};

const char* to_string(ShedPolicy p);
bool shed_policy_from_string(const std::string& s, ShedPolicy& out);

/// Terminal and intermediate fates of one request attempt. Serialized by
/// name into journal records; values are append-only.
enum class Outcome : std::uint8_t {
  kAdmitted,        ///< full solve placed the VM (commit)
  kRejected,        ///< full solve found no feasible placement
  kProbeRejected,   ///< downgraded headroom probe proved infeasibility
  kDeferred,        ///< probe passed; retry scheduled (non-terminal)
  kTimedOut,        ///< retry budget exhausted under deadline pressure
  kShed,            ///< dropped by the overload policy at enqueue
  kRemoved,         ///< VM removed (commit)
  kNotPresent,      ///< remove/resize of a VM the service never admitted
  kResized,         ///< remove+re-admit committed atomically
  kResizeRejected,  ///< re-admit failed; original VM untouched (rollback)
};

const char* to_string(Outcome o);
bool outcome_from_string(const std::string& s, Outcome& out);

/// One write-ahead journal record: the fate of one request attempt, with
/// enough folded state (cost, task count, decision-event count, allocator
/// effort deltas) that recovery can replay non-mutating decisions without
/// re-running the solver while keeping every cumulative counter — and
/// therefore the metrics timeline — bit-identical. Serialized as
/// "seq=N|attempt=A|kind=K|outcome=O|vm=V|tasks=T|events=E|cost_ns=C|latency_ns=L|dbf=D|budget=B|adm=M".
struct JournalRecord {
  std::uint64_t seq = 0;
  unsigned attempt = 0;
  RequestKind kind = RequestKind::kAdmit;
  Outcome outcome = Outcome::kAdmitted;
  int vm = 0;
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;      ///< decision-log events this attempt emitted
  std::int64_t cost_ns = 0;      ///< virtual processing cost
  std::int64_t latency_ns = 0;   ///< arrival -> completion (0 when deferred)
  std::uint64_t dbf_evals = 0;      ///< AllocCounters.dbf_evaluations delta
  std::uint64_t budget_evals = 0;   ///< AllocCounters.budget_evaluations delta
  std::uint64_t admission_tests = 0;  ///< AllocCounters.admission_tests delta
};

std::string serialize(const JournalRecord& r);
/// Strict parse; throws util::Error on any malformed field.
JournalRecord parse_journal_record(const std::string& payload);

/// Injectable kill sites for the crash-recovery tests: the process calls
/// std::_Exit(137) at the chosen point, leaving the on-disk state exactly
/// as a real crash would.
enum class CrashPoint : std::uint8_t {
  kNone,
  kBeforeAppend,  ///< decision made, journal record not yet written
  kAfterAppend,   ///< record durable, nothing after it ran
  kMidSnapshot,   ///< snapshot tmp file half-written, no rename
};

struct CrashSpec {
  CrashPoint point = CrashPoint::kNone;
  /// kBeforeAppend/kAfterAppend: the trace seq whose first journal append
  /// triggers the kill. kMidSnapshot: the 1-based snapshot write to kill.
  std::uint64_t at = 0;
};

/// Parse "before-append:SEQ" | "after-append:SEQ" | "mid-snapshot:K".
CrashSpec parse_crash_spec(const std::string& spec);

struct ServiceConfig {
  model::PlatformSpec platform = model::PlatformSpec::A();
  std::string platform_name = "A";
  TraceConfig trace;
  std::uint64_t seed = 42;
  /// Per-attempt deadline budget; zero disables the downgrade ladder.
  util::Time deadline = util::Time::zero();
  ShedPolicy shed = ShedPolicy::kRejectNewest;
  std::size_t queue_cap = 64;
  unsigned max_retries = 3;
  util::Time backoff = util::Time::ms(10);  ///< retry delay, doubled per try
  std::uint64_t snapshot_every = 1000;      ///< commits per snapshot; 0 = off
  std::string journal_path;                 ///< empty = no journaling
  bool recover = false;     ///< replay <journal> (+ snapshot) before going live
  CrashSpec crash;
  core::VmAllocConfig vm_cfg;
  /// Cooperative cancellation (SIGINT/SIGTERM): checked between requests.
  const std::atomic<bool>* cancel = nullptr;
  /// Test hook: behave as if interrupted after N served requests (0 = off) —
  /// exercises the interrupted-report path without killing the process.
  std::uint64_t stop_after = 0;

  // --- Runtime telemetry (docs/telemetry.md). None of these fields enter
  //     config_digest: telemetry on/off, and any sampling rate, must leave
  //     the report and the journal byte-identical and recovery-compatible.
  std::string timeline_path;  ///< metrics timeline file; empty = off
  /// Decisions (journal records) per timeline sample. Sampling is counted
  /// in virtual-time events, so the timeline is bit-identical at any
  /// --jobs/--inner-jobs and across --recover.
  std::uint64_t sample_every = 100;
  /// Render a deterministic stats snapshot to `stats_out` every N
  /// decisions; 0 = off.
  std::uint64_t stats_every = 0;
  /// Live introspection latch (SIGUSR1): when set, the next decision
  /// renders a stats snapshot and clears it.
  std::atomic<bool>* stats_signal = nullptr;
  std::ostream* stats_out = nullptr;  ///< stats sink; null = std::cerr
  /// Bounded post-mortem ring: the last K request spans, dumped to
  /// <journal>.spans on crash/interrupt. 0 disables the ring.
  std::size_t span_ring = 64;
  /// Keep every request span in ServiceResult.spans (for --span-trace and
  /// the tests); the ring is maintained either way.
  bool collect_spans = false;
};

struct ServiceResult {
  ServeReport report;
  bool interrupted = false;
  /// Non-fatal recovery findings (torn tail truncated, stale journal
  /// ignored, snapshot discarded); the CLI prints them to stderr so the
  /// report JSON stays byte-identical to an uninterrupted run's.
  std::vector<std::string> warnings;
  /// Every request span, in decision order (only when cfg.collect_spans).
  std::vector<obs::RequestSpan> spans;
};

/// Run the service over the configured trace (optionally recovering from a
/// previous run's journal first). Throws util::Error on I/O failures and
/// on replay divergence (a journal that disagrees with recomputation).
ServiceResult run_service(const ServiceConfig& cfg);

/// One bounded-queue slot (exposed for the shed-policy unit tests).
struct QueueEntry {
  std::uint64_t seq = 0;
  unsigned attempt = 0;
  util::Time ready_at;  ///< arrival time, or the retry time for attempt > 0
};

/// Pick the victim when `incoming` would overflow a full queue: an index
/// into `queue`, or queue.size() to shed the incoming entry itself.
/// Deterministic lexicographic-max selection; `trace` supplies each
/// entry's kind, utilization, and criticality.
std::size_t shed_victim(ShedPolicy policy,
                        const std::vector<QueueEntry>& queue,
                        const QueueEntry& incoming,
                        const std::vector<ServeRequest>& trace);

/// The canonical config digest stored in journal headers and snapshots:
/// recovery refuses to mix artifacts from a differently-configured run.
std::string config_digest(const ServiceConfig& cfg);

}  // namespace vc2m::service
