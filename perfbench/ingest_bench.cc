// Full-ingest-path benchmark: the replay, its checks and its tracing.
//
//   ingest_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                --out-dir DIR
//   ingest_bench --selftest --out-dir DIR
//
// One run replays a seeded stream, generated before timing starts, through
// the whole ingest path in a closed loop on one writer thread: EventBatch
// assembly, BatchLogWriter::Append (with an explicit Sync every
// kSyncEvery batches), StreamEngine::ApplyBatch (validate, apply, epoch,
// snapshot publish, subscriber delta), and WriteCheckpoint whenever one is
// due (the log then restarts empty). Beside the writer run one open-loop
// snapshot reader and one delta subscriber, both sleeping between
// operations (the reader spins through the last kReadSpinUs before a read).
// The run then syncs the log, "crashes" (drops the engine), recovers from
// the last checkpoint plus the log tail, and checks the live
// view, the reader's last snapshot and the recovered view against SQLite
// evaluating the same SQL over the benchmark's own record of the live rows.
//
// The last line of stdout is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run also makes
// an untraced pass first and prints both passes' end-to-end figures, so the
// tracing overhead is visible, and writes the span file and a per-layer
// summary under --out-dir. Exit status is non-zero on any failed operation
// or oracle mismatch.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mm.hpp"
#include "oracle.h"
#include "q41.hpp"
#include "src/codegen/cpp_gen.h"
#include "src/compiler/compile.h"
#include "src/compiler/tir.h"
#include "src/compiler/tir_verify.h"
#include "src/runtime/batch_log.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace rt = dbtoaster::runtime;
using Clock = std::chrono::steady_clock;
using dbtoaster::Row;
using dbtoaster::Status;
using dbtoaster::Value;

// Shard-pool threads for the pipeline, the same on every workload: the
// writer alone. With a second pool worker, every sharded group and large view
// diff waits at a barrier for it, and on a shared virtual machine a preempted
// worker stalls the writer: orderbook-serve's events_per_s then spread over
// 0.39 of its median across ten seeds, against 0.086 with one thread.
// The traced run measures the 2-thread fan-out separately (apply.batch_us_2t).
constexpr size_t kPoolThreads = 1;
constexpr size_t kFanOutThreads = 2;
// Set-up and recovery are repeated in every round; each is reported as the
// median over all rounds.
constexpr int kSetupRepeats = 3;
constexpr int kRecoveryRepeats = 2;
// The log is fsync'd every this many batches, and before the crash.
constexpr size_t kSyncEvery = 16;
// Open-loop reader period, the part of it the reader spins through before
// each due time, and the subscriber's poll period.
constexpr int64_t kReadPeriodUs = 1000;
constexpr int64_t kReadSpinUs = 100;
constexpr int64_t kPollPeriodUs = 2000;
constexpr size_t kPreloadChunk = 4096;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Host-wide CPU time split from /proc/stat, to report how much time the
/// hypervisor stole during a pass (zero where the kernel does not report it).
struct CpuTicks {
  uint64_t steal = 0, total = 0;
};
CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int i = 0; i < 8 && f; ++i) {
    uint64_t v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

// ---- tracing --------------------------------------------------------------
//
// Spans are recorded by this file around each call into a layer's public
// functions, kept in per-thread buffers and written out after the run.

enum SpanName : uint8_t {
  kSetup, kParse, kCompile, kTir, kEmit, kConstruct, kPreload, kEnableServing,
  kBatch, kBuild, kValidate, kLogAppend, kLogSync, kApply, kCheckpoint,
  kRead, kSnapshot, kScan, kPoll,
  kRecovery, kRecoveryConstruct, kRestore, kReplay,
  kApplyOff, kApply2t,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "setup", "sql.parse", "compiler.compile", "compiler.tir", "codegen.emit",
    "engine.construct", "setup.preload", "serving.enable",
    "batch", "ingest.build", "ingest.validate", "log.append", "log.sync",
    "apply", "checkpoint.write",
    "read", "serving.snapshot", "serving.scan", "serving.poll",
    "recovery", "recovery.construct", "recovery.restore", "recovery.replay",
    "apply.serving_off", "apply.two_threads"};

struct Span {
  int64_t start_ns = 0, end_ns = 0;
  int64_t batch = -1;
  int32_t parent = -1;
  SpanName name = kBatch;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 16);
  }
  int32_t Begin(SpanName name, int64_t batch) {
    Span s;
    s.name = name;
    s.batch = batch;
    s.parent = open_;
    s.start_ns = Now();
    spans_.push_back(s);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int32_t id) {
    spans_[id].end_ns = Now();
    open_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// RAII span; a null buffer (untraced pass) records nothing.
class Scope {
 public:
  Scope(SpanBuffer* buf, SpanName name, int64_t batch = -1)
      : buf_(buf), id_(buf ? buf->Begin(name, batch) : -1) {}
  ~Scope() {
    if (buf_) buf_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanBuffer* buf_;
  int32_t id_;
};

/// Durations (us) of every span with `name`, in recording order.
std::vector<double> Durations(const SpanBuffer& buf, SpanName name) {
  std::vector<double> out;
  for (const Span& s : buf.spans()) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

// ---- engines ---------------------------------------------------------------

struct EngineBox {
  std::unique_ptr<dbt::StreamProgram> program;
  std::unique_ptr<rt::StreamEngine> engine;
};

EngineBox MakeEngine(const WorkloadSpec& spec,
                     const dbtoaster::compiler::Program& compiled) {
  EngineBox box;
  if (spec.engine == EngineKind::kInterpreted) {
    box.engine = std::make_unique<rt::Engine>(compiled);
    return box;
  }
  if (spec.query_file == "mm.sql") {
    box.program = std::make_unique<dbtoaster_gen::mm_Program>();
  } else {
    box.program = std::make_unique<dbtoaster_gen::q41_Program>();
  }
  box.engine = std::make_unique<rt::CompiledProgramEngine>(box.program.get());
  return box;
}

size_t MapEntries(rt::StreamEngine* engine, dbt::StreamProgram* program) {
  if (program != nullptr) return program->total_map_entries();
  return static_cast<rt::Engine*>(engine)->TotalMapEntries();
}

/// One Row per event, appended with EventBatch::Add: the cost a feed adapter
/// pays in front of the engine.
rt::EventBatch Assemble(const Stream& st, const std::vector<StreamEvent>& events,
                        size_t begin, size_t end) {
  rt::EventBatch batch;
  for (size_t i = begin; i < end; ++i) {
    const StreamEvent& e = events[i];
    Row row;
    row.reserve(st.arity[e.rel]);
    for (size_t c = 0; c < st.arity[e.rel]; ++c) row.emplace_back(e.cols[c]);
    batch.Add(e.insert ? dbtoaster::EventKind::kInsert
                       : dbtoaster::EventKind::kDelete,
              st.relations[e.rel], std::move(row));
  }
  return batch;
}

// ---- run context -----------------------------------------------------------

struct Context {
  WorkloadSpec spec;
  std::string script;         ///< the workload's SQL (DDL + query)
  std::string gen_header;     ///< build-time dbtc output (toaster-c)
  std::string out_dir;
  Stream stream;
  double generate_s = 0;      ///< untimed stream generation
  IntRows oracle;             ///< SQLite's result over stream.live
  std::string view = "q0";

  /// Stream batch `b`, assembled (see Stream::events for the bounds).
  rt::EventBatch Batch(size_t b) const {
    const size_t end = b + 1 == spec.num_batches()
                           ? stream.events.size()
                           : (b + 1) * spec.batch_events;
    return Assemble(stream, stream.events, b * spec.batch_events, end);
  }
};

bool Fail(std::string* error, const std::string& what) {
  if (error->empty()) *error = what;
  return false;
}

// ---- set-up ----------------------------------------------------------------

struct SetupResult {
  dbtoaster::compiler::Program program;
  EngineBox box;
  size_t maps = 0, statements = 0, lines = 0;
};

/// Parse -> compile -> lower + verify -> emit C++ (toaster-c) -> construct
/// the engine -> preload the initial state -> enable serving.
bool Setup(const Context& ctx, SpanBuffer* tr, bool serve, SetupResult* out,
           std::string* error) {
  namespace cc = dbtoaster::compiler;
  Scope setup(tr, kSetup);
  dbtoaster::Result<dbtoaster::sql::Script> script =
      dbtoaster::Status::Internal("unparsed");
  {
    Scope s(tr, kParse);
    script = dbtoaster::sql::ParseScript(ctx.script);
  }
  if (!script.ok()) return Fail(error, "parse: " + script.status().ToString());
  dbtoaster::Catalog catalog;
  for (const auto& t : script.value().tables) {
    if (!catalog.AddRelation(t).ok()) return Fail(error, "catalog");
  }
  if (script.value().queries.size() != 1) {
    return Fail(error, "workload script must hold exactly one query");
  }
  {
    Scope s(tr, kCompile);
    cc::Compiler compiler(catalog);
    const auto& q = script.value().queries[0];
    Status added = compiler.AddQuery(q.name, *q.select);
    if (!added.ok()) return Fail(error, "compile: " + added.ToString());
    auto program = compiler.Compile();
    if (!program.ok()) {
      return Fail(error, "compile: " + program.status().ToString());
    }
    out->program = std::move(program).value();
  }
  {
    Scope s(tr, kTir);
    dbtoaster::tir::Module module = dbtoaster::tir::Lower(out->program);
    dbtoaster::tir::VerifyResult verdict = dbtoaster::tir::Verify(module);
    if (!verdict.ok()) return Fail(error, "verify: " + verdict.ToString(""));
  }
  out->maps = out->program.maps.size();
  out->statements = 0;
  for (const auto& t : out->program.triggers) {
    out->statements += t.statements.size();
  }
  if (ctx.spec.engine == EngineKind::kCompiled) {
    dbtoaster::codegen::GenOptions opts;
    opts.class_name =
        ctx.spec.query_file.substr(0, ctx.spec.query_file.find('.')) +
        "_Program";
    dbtoaster::Result<std::string> code = Status::Internal("not emitted");
    {
      Scope s(tr, kEmit);
      code = dbtoaster::codegen::GenerateCpp(out->program, opts);
    }
    if (!code.ok()) return Fail(error, "emit: " + code.status().ToString());
    // The program this binary runs was compiled from dbtc's output at build
    // time; it must be what this compiler emits now.
    if (code.value() != ctx.gen_header) {
      return Fail(error, "emitted C++ differs from the compiled-in program");
    }
    out->lines = static_cast<size_t>(
        std::count(code.value().begin(), code.value().end(), '\n'));
  }
  {
    Scope s(tr, kConstruct);
    out->box = MakeEngine(ctx.spec, out->program);
  }
  {
    Scope s(tr, kPreload);
    const Stream& st = ctx.stream;
    for (size_t i = 0; i < st.preload.size(); i += kPreloadChunk) {
      const size_t end = std::min(st.preload.size(), i + kPreloadChunk);
      Status s2 =
          out->box.engine->ApplyBatch(Assemble(st, st.preload, i, end));
      if (!s2.ok()) return Fail(error, "preload: " + s2.ToString());
    }
  }
  if (serve) {
    Scope s(tr, kEnableServing);
    Status s2 = out->box.engine->EnableServing({ctx.view});
    if (!s2.ok()) return Fail(error, "serving: " + s2.ToString());
  }
  return true;
}

// ---- reader and subscriber -------------------------------------------------

struct ReaderResult {
  std::vector<double> latency_us;  ///< from each read's due time
  std::vector<double> late_us;     ///< start minus due time
  uint64_t reads = 0, failed = 0;
  int64_t checksum = 0;            ///< keeps the scan from being optimized out
  rt::ViewSnapshot last;           ///< taken after the writer finished
};

/// Reads are timed from their due time. So that the figure is the read's
/// own work and not how late the kernel wakes a sleeping thread, the reader
/// sets its own timer slack to 1 ns and spins through the last kReadSpinUs
/// before each due time.
void ReaderLoop(rt::StreamEngine* engine, const std::string& view,
                const std::atomic<bool>* done, SpanBuffer* tr,
                ReaderResult* out) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto period = std::chrono::microseconds(kReadPeriodUs);
  const auto spin = std::chrono::microseconds(kReadSpinUs);
  auto due = Clock::now();
  uint64_t last_epoch = 0;
  for (;;) {
    const bool final_read = done->load(std::memory_order_acquire);
    if (!final_read) {
      due += period;
      std::this_thread::sleep_until(due - spin);
      while (Clock::now() < due) {
      }
    }
    const auto start = Clock::now();
    rt::ViewSnapshot snap;
    bool ok = true;
    {
      Scope read(tr, kRead);
      {
        Scope s(tr, kSnapshot);
        snap = engine->Snapshot();
      }
      Scope s(tr, kScan);
      const dbtoaster::exec::QueryResult* r = snap.Find(view);
      ok = r != nullptr && snap.epoch() >= last_epoch;
      if (r != nullptr) {
        for (const auto& [row, mult] : r->rows) {
          for (const Value& v : row) out->checksum += v.AsInt() * mult;
        }
      }
    }
    const auto end = Clock::now();
    ++out->reads;
    if (!ok) ++out->failed;
    last_epoch = snap.epoch();
    if (final_read) {
      out->last = snap;
      return;
    }
    out->latency_us.push_back(Micros(due, end));
    out->late_us.push_back(Micros(due, start));
  }
}

using RowCounts = std::unordered_map<Row, int64_t, dbtoaster::RowHash,
                                     dbtoaster::RowEq>;

struct SubscriberResult {
  uint64_t polls = 0, failed = 0, deltas = 0;
  std::vector<double> delta_rows;  ///< per received EpochDelta
  uint64_t epoch = 0;
  RowCounts rows;                  ///< base + every polled delta
};

/// Replays the delta stream with this file's own multiset arithmetic.
void SubscriberLoop(rt::ViewSubscriber* sub, const std::string& view,
                    const std::atomic<bool>* done, SpanBuffer* tr,
                    SubscriberResult* out) {
  if (const auto* base = sub->base().Find(view)) {
    for (const auto& [row, mult] : base->rows) out->rows[row] += mult;
  }
  out->epoch = sub->base().epoch();
  for (;;) {
    const bool final_poll = done->load(std::memory_order_acquire);
    if (!final_poll) {
      std::this_thread::sleep_for(std::chrono::microseconds(kPollPeriodUs));
    }
    std::vector<std::shared_ptr<const rt::EpochDelta>> deltas;
    {
      Scope s(tr, kPoll);
      deltas = sub->Poll();
    }
    ++out->polls;
    bool ok = !sub->lagged();
    for (const auto& d : deltas) {
      ok = ok && d->epoch == out->epoch + 1;
      out->epoch = d->epoch;
      ++out->deltas;
      size_t rows = 0;
      for (const rt::ViewDelta& v : d->views) {
        if (v.view != view) continue;
        rows += v.added.size() + v.removed.size();
        for (const auto& [row, n] : v.added) out->rows[row] += n;
        for (const auto& [row, n] : v.removed) {
          auto it = out->rows.find(row);
          if (it == out->rows.end()) {
            ok = false;
            continue;
          }
          it->second -= n;
          if (it->second == 0) out->rows.erase(it);
        }
      }
      out->delta_rows.push_back(static_cast<double>(rows));
    }
    if (!ok) ++out->failed;
    if (final_poll) return;
  }
}

// ---- the pipeline pass -----------------------------------------------------

struct PassResult {
  bool ok = false;
  std::string error;
  // End to end, over all rounds.
  std::vector<double> setup_s, recovery_s, batch_us, read_us, read_late_us;
  double replay_s = 0;
  uint64_t events = 0;
  double steal_share = 0;  ///< of all CPU time on the host, over the pass
  // Accounting.
  uint64_t batches = 0, batches_failed = 0;
  uint64_t reads = 0, reads_failed = 0;
  uint64_t polls = 0, polls_failed = 0, deltas = 0;
  uint64_t checkpoints = 0, checkpoints_failed = 0;
  uint64_t recoveries = 0, recoveries_failed = 0;
  // Checks.
  std::vector<std::string> mismatches;
  // Layer figures that are not spans (state figures from the last round).
  size_t maps = 0, statements = 0, lines = 0;
  size_t state_bytes = 0, map_entries = 0;
  int64_t log_bytes = 0, checkpoint_bytes = 0;
  std::vector<double> view_rows, delta_rows;
};

void CheckView(const Context& ctx, const std::string& what,
               const dbtoaster::exec::QueryResult& view, PassResult* out) {
  IntRows rows;
  std::string error;
  if (!ViewToIntRows(view, &rows, &error)) {
    out->mismatches.push_back(what + ": " + error);
    return;
  }
  const std::string diff = CompareRows(ctx.oracle, rows);
  if (!diff.empty()) out->mismatches.push_back(what + " vs SQLite: " + diff);
}

/// Checks the subscriber's own replay against the final published snapshot.
void CheckSubscriber(const Context& ctx, const SubscriberResult& sub,
                     const rt::ViewSnapshot& final_snap, const std::string& tag,
                     PassResult* out) {
  dbtoaster::exec::QueryResult replayed;
  for (const auto& [row, n] : sub.rows) replayed.rows.emplace_back(row, n);
  IntRows a, b;
  std::string err;
  const auto* published = final_snap.Find(ctx.view);
  if (published == nullptr || !ViewToIntRows(*published, &a, &err) ||
      !ViewToIntRows(replayed, &b, &err)) {
    out->mismatches.push_back(tag + "subscriber replay: " + err);
  } else if (sub.epoch != final_snap.epoch()) {
    out->mismatches.push_back(tag + "subscriber stopped at epoch " +
                              std::to_string(sub.epoch));
  } else if (std::string d = CompareRows(a, b); !d.empty()) {
    out->mismatches.push_back(tag +
                              "subscriber replay vs published snapshot: " + d);
  }
}

/// One round: set-up (repeated), the timed closed-loop writer with reader
/// and subscriber alongside, the crash, recovery (repeated), and every
/// check. Returns false when an operation failed.
bool RunRound(const Context& ctx, size_t round, SpanBuffer* tw,
              SpanBuffer* trd, SpanBuffer* tsub, PassResult* out) {
  const WorkloadSpec& spec = ctx.spec;
  const std::string tag = "round " + std::to_string(round) + ": ";
  SetupResult setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup = SetupResult();
    const auto t0 = Clock::now();
    if (!Setup(ctx, tw, /*serve=*/true, &setup, &out->error)) return false;
    out->setup_s.push_back(Micros(t0, Clock::now()) / 1e6);
  }
  out->maps = setup.maps;
  out->statements = setup.statements;
  out->lines = setup.lines;
  rt::StreamEngine* engine = setup.box.engine.get();

  const std::string dir = ctx.out_dir + "/run-" + spec.name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/batches.log";
  const std::string ckpt_path = dir + "/state.ckpt";

  // The initial state is checkpointed before the stream starts, so every
  // later crash point has a checkpoint to recover from.
  ++out->checkpoints;
  Status st = rt::WriteCheckpoint(ckpt_path, *engine);
  if (!st.ok()) {
    ++out->checkpoints_failed;
    return Fail(&out->error, tag + "initial checkpoint: " + st.ToString());
  }
  rt::BatchLogWriter log;
  log.set_sync_every(SIZE_MAX);  // syncs are issued (and timed) here
  st = log.Open(log_path, 0);
  if (!st.ok()) return Fail(&out->error, tag + "log open: " + st.ToString());

  auto sub = engine->Subscribe();
  if (!sub.ok()) {
    return Fail(&out->error, tag + "subscribe: " + sub.status().ToString());
  }
  rt::ViewSubscriber subscriber = std::move(sub).value();
  ReaderResult reads;
  SubscriberResult polls;
  std::atomic<bool> done{false};
  std::thread reader(ReaderLoop, engine, ctx.view, &done, trd, &reads);
  std::thread poller(SubscriberLoop, &subscriber, ctx.view, &done, tsub,
                     &polls);

  const size_t n = spec.num_batches();
  const size_t checkpointed = spec.checkpoints * spec.checkpoint_every;
  const auto t_start = Clock::now();
  for (size_t b = 0; b < n; ++b) {
    const int64_t id = static_cast<int64_t>(round * n + b);
    Status valid;
    if (tw != nullptr) {
      // ApplyBatch validates inside the batch span; this times a second
      // validation of a copy, outside it, so a traced batch does the same
      // work as an untraced one.
      const rt::EventBatch copy = ctx.Batch(b);
      Scope s(tw, kValidate, id);
      valid = engine->ingest_validator().ValidateBatch(copy);
    }
    const auto t0 = Clock::now();
    Scope batch_span(tw, kBatch, id);
    ++out->batches;
    rt::EventBatch batch;
    {
      Scope s(tw, kBuild, id);
      batch = ctx.Batch(b);
    }
    st = valid;
    if (st.ok()) {
      Scope s(tw, kLogAppend, id);
      st = log.Append(engine->epoch() + 1, batch);
    }
    if (st.ok() && (b + 1) % kSyncEvery == 0) {
      Scope s(tw, kLogSync, id);
      st = log.Sync();
    }
    if (st.ok()) {
      Scope s(tw, kApply, id);
      st = engine->ApplyBatch(std::move(batch));
    }
    if (!st.ok()) {
      ++out->batches_failed;
      Fail(&out->error, tag + "batch " + std::to_string(b) + ": " +
                            st.ToString());
      break;
    }
    if (tw != nullptr) {
      const auto* v = engine->Snapshot().Find(ctx.view);
      out->view_rows.push_back(v ? static_cast<double>(v->rows.size()) : 0.0);
    }
    if ((b + 1) % spec.checkpoint_every == 0 && b + 1 <= checkpointed) {
      Scope s(tw, kCheckpoint, id);
      ++out->checkpoints;
      out->log_bytes += FileBytes(log_path);
      st = rt::WriteCheckpoint(ckpt_path, *engine);
      // The checkpoint covers the log so far: start a fresh log segment.
      if (st.ok()) st = log.Open(log_path, 0);
      if (!st.ok()) {
        ++out->checkpoints_failed;
        Fail(&out->error, tag + "checkpoint: " + st.ToString());
        break;
      }
    }
    out->batch_us.push_back(Micros(t0, Clock::now()));
  }
  const auto t_end = Clock::now();
  if (out->error.empty()) {
    Scope s(tw, kLogSync);
    st = log.Sync();
    if (!st.ok()) Fail(&out->error, tag + "final log sync: " + st.ToString());
  }
  out->log_bytes += FileBytes(log_path);
  log.Close();
  done.store(true, std::memory_order_release);
  reader.join();
  poller.join();
  subscriber = rt::ViewSubscriber();
  out->reads += reads.reads;
  out->reads_failed += reads.failed;
  out->read_us.insert(out->read_us.end(), reads.latency_us.begin(),
                      reads.latency_us.end());
  out->read_late_us.insert(out->read_late_us.end(), reads.late_us.begin(),
                           reads.late_us.end());
  out->polls += polls.polls;
  out->polls_failed += polls.failed;
  out->deltas += polls.deltas;
  out->delta_rows.insert(out->delta_rows.end(), polls.delta_rows.begin(),
                         polls.delta_rows.end());
  if (!out->error.empty()) return false;
  out->replay_s += Micros(t_start, t_end) / 1e6;
  out->events += ctx.stream.events.size();
  out->checkpoint_bytes = FileBytes(ckpt_path);

  // Checks on the live engine before the crash.
  const uint64_t pre_crash_epoch = engine->epoch();
  auto live = engine->View(ctx.view);
  if (!live.ok()) {
    return Fail(&out->error, tag + "view: " + live.status().ToString());
  }
  CheckView(ctx, tag + "live view", live.value(), out);
  if (reads.last.epoch() != pre_crash_epoch) {
    out->mismatches.push_back(tag + "reader's last snapshot is at epoch " +
                              std::to_string(reads.last.epoch()) +
                              ", engine at " +
                              std::to_string(pre_crash_epoch));
  } else if (const auto* r = reads.last.Find(ctx.view)) {
    CheckView(ctx, tag + "reader's last snapshot", *r, out);
  } else {
    out->mismatches.push_back(tag + "reader's last snapshot lacks the view");
  }
  CheckSubscriber(ctx, polls, engine->Snapshot(), tag, out);
  out->state_bytes = engine->StateBytes();
  out->map_entries = MapEntries(engine, setup.box.program.get());

  // Crash: the engine and everything in memory is gone; the checkpoint and
  // the synced log tail remain.
  setup.box = EngineBox();
  engine = nullptr;

  for (int r = 0; r < kRecoveryRepeats; ++r) {
    ++out->recoveries;
    EngineBox box;
    const auto t0 = Clock::now();
    {
      Scope rec(tw, kRecovery);
      {
        Scope s(tw, kRecoveryConstruct);
        box = MakeEngine(spec, setup.program);
      }
      {
        Scope s(tw, kRestore);
        st = rt::RestoreCheckpoint(ckpt_path, box.engine.get());
      }
      if (st.ok()) {
        Scope s(tw, kReplay);
        auto replay = rt::ReplayLog(log_path, box.engine.get());
        if (!replay.ok()) st = replay.status();
      }
    }
    out->recovery_s.push_back(Micros(t0, Clock::now()) / 1e6);
    if (!st.ok()) {
      ++out->recoveries_failed;
      return Fail(&out->error, tag + "recovery: " + st.ToString());
    }
    if (box.engine->epoch() != pre_crash_epoch) {
      out->mismatches.push_back(tag + "recovered epoch " +
                                std::to_string(box.engine->epoch()) +
                                " != pre-crash epoch " +
                                std::to_string(pre_crash_epoch));
    }
    if (r == 0) {
      auto v = box.engine->View(ctx.view);
      if (v.ok()) {
        CheckView(ctx, tag + "recovered view", v.value(), out);
      } else {
        out->mismatches.push_back(tag + "recovered view: " +
                                  v.status().ToString());
      }
    }
  }
  std::filesystem::remove_all(dir);
  return true;
}

/// `spec.rounds` rounds over the same stream. Repeating the whole pipeline
/// spreads the set-up and recovery samples over the run, so their medians
/// do not hinge on one moment of a host whose speed drifts.
PassResult RunPass(const Context& ctx, SpanBuffer* tw, SpanBuffer* trd,
                   SpanBuffer* tsub) {
  PassResult out;
  dbt::shard_pool().set_threads(kPoolThreads);
  const CpuTicks before = ReadCpuTicks();
  for (size_t r = 0; r < ctx.spec.rounds; ++r) {
    if (!RunRound(ctx, r, tw, trd, tsub, &out)) return out;
  }
  const CpuTicks after = ReadCpuTicks();
  if (after.total > before.total) {
    out.steal_share = static_cast<double>(after.steal - before.steal) /
                      static_cast<double>(after.total - before.total);
  }
  out.ok = true;
  return out;
}

/// Per-batch ApplyBatch time with serving off, at `threads` pool threads,
/// over the same batches (assembled outside the timed call).
bool ApplyOnlyPass(const Context& ctx, size_t threads, SpanBuffer* tw,
                   SpanName name, std::string* error) {
  dbt::shard_pool().set_threads(threads);
  SetupResult setup;
  const bool ok = Setup(ctx, nullptr, /*serve=*/false, &setup, error);
  for (size_t b = 0; ok && b < ctx.spec.num_batches(); ++b) {
    rt::EventBatch batch = ctx.Batch(b);
    Scope s(tw, name, static_cast<int64_t>(b));
    Status st = setup.box.engine->ApplyBatch(std::move(batch));
    if (!st.ok()) return Fail(error, "apply-only pass: " + st.ToString());
  }
  dbt::shard_pool().set_threads(kPoolThreads);
  return ok;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

/// The gated end-to-end metrics. The batch p99 is printed beside them but
/// not gated: on a shared virtual machine it tracks how often the
/// hypervisor preempts the writer or the pool worker (see README.md).
std::vector<Metric> EndToEnd(const PassResult& p, double peak_rss_mb) {
  return {
      {"events_per_s", "ev/s", p.events / p.replay_s},
      {"batch_p50_us", "us", Quantile(p.batch_us, 0.50)},
      {"read_p50_us", "us", Median(p.read_us)},
      {"recovery_s", "s", Median(p.recovery_s)},
      {"setup_s", "s", Median(p.setup_s)},
      {"peak_rss_mb", "MiB", peak_rss_mb},
  };
}

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintPass(const char* label, const PassResult& p,
               const std::vector<Metric>& m) {
  std::printf("%s:", label);
  for (const Metric& x : m) {
    std::printf(" %s=%.6g %s", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("\n");
  const size_t beyond_p99 =
      p.batch_us.size() - static_cast<size_t>(std::ceil(0.99 * p.batch_us.size()));
  std::printf(
      "  batch_p99_us=%.6g us (%zu of %zu batches beyond)  host steal %.1f%%\n",
      Quantile(p.batch_us, 0.99), beyond_p99, p.batch_us.size(),
      100.0 * p.steal_share);
  std::printf(
      "  reads=%llu (late p50=%.1f us, p99=%.1f us)  polls=%llu deltas=%llu  "
      "checkpoints=%llu recoveries=%llu\n",
      static_cast<unsigned long long>(p.reads), Median(p.read_late_us),
      Quantile(p.read_late_us, 0.99), static_cast<unsigned long long>(p.polls),
      static_cast<unsigned long long>(p.deltas),
      static_cast<unsigned long long>(p.checkpoints),
      static_cast<unsigned long long>(p.recoveries));
}

void WriteSpans(const std::string& path,
                const std::vector<std::pair<const char*, const SpanBuffer*>>&
                    buffers) {
  std::ofstream f(path);
  f << "id\tthread\tname\tstart_ns\tend_ns\tparent\tbatch\n";
  int64_t base = 0;
  for (const auto& [thread, buf] : buffers) {
    const auto& spans = buf->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << base + static_cast<int64_t>(i) << '\t' << thread << '\t'
        << kSpanNames[s.name] << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << (s.parent < 0 ? -1 : base + s.parent) << '\t' << s.batch << '\n';
    }
    base += static_cast<int64_t>(spans.size());
  }
}

/// Per span name: count, total, self time (total minus the time its child
/// spans cover), and median duration.
void WriteSummary(const std::string& path,
                  const std::vector<const SpanBuffer*>& buffers) {
  std::vector<std::vector<double>> dur(kNumSpanNames);
  std::vector<double> total(kNumSpanNames, 0), self(kNumSpanNames, 0);
  for (const SpanBuffer* buf : buffers) {
    const auto& spans = buf->spans();
    std::vector<double> child(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child[s.parent] += (s.end_ns - s.start_ns) / 1e3;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double d = (spans[i].end_ns - spans[i].start_ns) / 1e3;
      dur[spans[i].name].push_back(d);
      total[spans[i].name] += d;
      self[spans[i].name] += d - child[i];
    }
  }
  std::ofstream f(path);
  f << "layer\tcount\ttotal_us\tself_us\tmedian_us\n";
  for (int n = 0; n < kNumSpanNames; ++n) {
    if (dur[n].empty()) continue;
    f << kSpanNames[n] << '\t' << dur[n].size() << '\t' << total[n] << '\t'
      << self[n] << '\t' << Median(dur[n]) << '\n';
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void Accumulate(const PassResult& p, uint64_t* attempted, uint64_t* failed) {
  *attempted += p.batches + p.reads + p.polls +
                p.checkpoints + p.recoveries;
  *failed += p.batches_failed + p.reads_failed + p.polls_failed +
             p.checkpoints_failed + p.recoveries_failed;
}

bool LoadContext(const WorkloadSpec& spec, uint64_t seed,
                 const std::string& out_dir, Context* ctx,
                 std::string* error) {
  ctx->spec = spec;
  ctx->out_dir = out_dir;
  ctx->script = ReadFile(std::string(PERFBENCH_QUERY_DIR) + "/" +
                         spec.query_file);
  if (ctx->script.empty()) return Fail(error, "cannot read " + spec.query_file);
  if (spec.engine == EngineKind::kCompiled) {
    const std::string stem = spec.query_file.substr(0, spec.query_file.find('.'));
    ctx->gen_header = ReadFile(std::string(PERFBENCH_GEN_DIR) + "/" + stem +
                               ".hpp");
    if (ctx->gen_header.empty()) return Fail(error, "no generated " + stem);
  }
  const auto t0 = Clock::now();
  ctx->stream = GenerateStream(spec, seed);
  ctx->generate_s = Micros(t0, Clock::now()) / 1e6;
  return OracleResult(ctx->script, ctx->stream, &ctx->oracle, error);
}

// ---- oracle self-test --------------------------------------------------------

/// Shows the oracle comparison is not vacuous: a clean engine matches, an
/// engine fed one event the record never saw does not, and neither does a
/// view with one corrupted value.
int SelfTest(const std::string& out_dir) {
  std::vector<WorkloadSpec> all = Workloads(10);
  WorkloadSpec spec = *FindWorkload(all, "orderbook-serve");
  spec.checkpoints = 1;
  spec.checkpoint_every = 20;
  spec.tail_batches = 0;
  spec.brokers = 50;
  spec.book_per_side = 500;
  Context ctx;
  std::string error;
  if (!LoadContext(spec, 1, out_dir, &ctx, &error)) {
    std::fprintf(stderr, "selftest: %s\n", error.c_str());
    return 1;
  }
  dbt::shard_pool().set_threads(kPoolThreads);
  SetupResult setup;
  if (!Setup(ctx, nullptr, /*serve=*/false, &setup, &error)) {
    std::fprintf(stderr, "selftest: %s\n", error.c_str());
    return 1;
  }
  rt::StreamEngine* engine = setup.box.engine.get();
  for (size_t b = 0; b < spec.num_batches(); ++b) {
    if (!engine->ApplyBatch(ctx.Batch(b)).ok()) {
      std::fprintf(stderr, "selftest: apply failed\n");
      return 1;
    }
  }
  auto check = [&](const dbtoaster::exec::QueryResult& view) {
    PassResult p;
    CheckView(ctx, "view", view, &p);
    return p.mismatches.empty() ? std::string() : p.mismatches.front();
  };
  const auto clean = engine->View(ctx.view);
  const std::string clean_diff = check(clean.value());

  dbtoaster::exec::QueryResult corrupted = clean.value();
  corrupted.rows.front().first.back() =
      Value(corrupted.rows.front().first.back().AsInt() + 1);
  const std::string corrupt_diff = check(corrupted);

  // One ASKS order for a broker that has bids, unseen by the record.
  const auto& bid = ctx.stream.live[0].begin()->first;
  rt::EventBatch extra;
  extra.AddInsert("ASKS", Row{Value(int64_t{1} << 40), Value(bid[1]),
                              Value(bid[2]), Value(int64_t{1000000})});
  const bool applied = engine->ApplyBatch(std::move(extra)).ok();
  const std::string extra_diff = check(engine->View(ctx.view).value());

  std::printf("selftest: clean view      -> %s\n",
              clean_diff.empty() ? "match" : clean_diff.c_str());
  std::printf("selftest: corrupted value -> %s\n",
              corrupt_diff.empty() ? "MATCH (check is vacuous)"
                                   : corrupt_diff.c_str());
  std::printf("selftest: unrecorded event -> %s\n",
              extra_diff.empty() ? "MATCH (check is vacuous)"
                                 : extra_diff.c_str());
  const bool ok = clean_diff.empty() && !corrupt_diff.empty() && applied &&
                  !extra_diff.empty();
  std::printf("selftest: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

// ---- main --------------------------------------------------------------------

int Run(int argc, char** argv) {
  std::string workload, out_dir = ".";
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atoi(next().c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(next().c_str());
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "ingest_bench: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  std::filesystem::create_directories(out_dir);
  if (selftest) return SelfTest(out_dir);

  const std::vector<WorkloadSpec> all = Workloads(std::max(1, seconds));
  const WorkloadSpec* spec = FindWorkload(all, workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "ingest_bench: unknown workload '%s' (one of:",
                 workload.c_str());
    for (const WorkloadSpec& w : all) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }

  Context ctx;
  std::string error;
  if (!LoadContext(*spec, seed, out_dir, &ctx, &error)) {
    std::fprintf(stderr, "ingest_bench: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "workload %s seed %llu: %zu rounds of %zu preload + %zu stream events "
      "in %zu batches of %zu, checkpoint every %zu batches, tail %zu; "
      "generated in %.2f s; oracle %zu rows\n",
      spec->name.c_str(), static_cast<unsigned long long>(seed), spec->rounds,
      ctx.stream.preload.size(), ctx.stream.events.size(), spec->num_batches(),
      spec->batch_events, spec->checkpoint_every, spec->tail_batches,
      ctx.generate_s, ctx.oracle.size());

  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  auto report = [&](const char* label, const PassResult& p) {
    Accumulate(p, &attempted, &failed);
    if (!p.ok) {
      std::printf("%s: FAILED: %s\n", label, p.error.c_str());
      correct = false;
      ++failed;
    }
    for (const std::string& m : p.mismatches) {
      std::printf("%s: MISMATCH: %s\n", label, m.c_str());
      correct = false;
    }
  };

  const PassResult plain = RunPass(ctx, nullptr, nullptr, nullptr);
  report("untraced", plain);
  const double rss_mb = PeakRssMb();
  std::vector<Metric> metrics = EndToEnd(plain, rss_mb);
  if (plain.ok) PrintPass("untraced", plain, metrics);
  std::printf("input: %.1f MiB pre-generated (%.1f%% of peak RSS)\n",
              ctx.stream.InputBytes() / 1048576.0,
              100.0 * ctx.stream.InputBytes() / 1048576.0 / rss_mb);

  if (trace != 0 && correct) {
    const auto origin = Clock::now();
    SpanBuffer tw(origin), trd(origin), tsub(origin), tapply(origin);
    const PassResult traced = RunPass(ctx, &tw, &trd, &tsub);
    report("traced", traced);
    if (traced.ok) {
      PrintPass("traced  ", traced, EndToEnd(traced, PeakRssMb()));
      const auto untraced_m = EndToEnd(plain, rss_mb);
      const auto traced_m = EndToEnd(traced, PeakRssMb());
      std::printf("tracing overhead:");
      for (size_t i = 0; i < untraced_m.size(); ++i) {
        std::printf(" %s %+.1f%%", untraced_m[i].name.c_str(),
                    100.0 * (traced_m[i].value / untraced_m[i].value - 1.0));
      }
      std::printf("\n");
    }
    bool extra_ok = traced.ok;
    if (extra_ok) {
      extra_ok = ApplyOnlyPass(ctx, kPoolThreads, &tapply, kApplyOff, &error) &&
                 ApplyOnlyPass(ctx, kFanOutThreads, &tapply, kApply2t, &error);
      if (!extra_ok) {
        std::printf("apply-only pass: FAILED: %s\n", error.c_str());
        correct = false;
        ++failed;
      }
    }
    if (extra_ok) {
      const std::string stem = out_dir + "/" + spec->name + "-seed" +
                               std::to_string(seed);
      WriteSpans(stem + ".spans.tsv", {{"writer", &tw},
                                       {"reader", &trd},
                                       {"subscriber", &tsub},
                                       {"writer", &tapply}});
      WriteSummary(stem + ".layers.tsv", {&tw, &trd, &tsub, &tapply});
      std::printf("spans: %s.spans.tsv, summary: %s.layers.tsv\n",
                  stem.c_str(), stem.c_str());

      const std::vector<double> on = Durations(tw, kApply);
      const std::vector<double> off = Durations(tapply, kApplyOff);
      std::vector<double> publish;
      for (size_t i = 0; i < std::min(on.size(), off.size()); ++i) {
        publish.push_back(on[i] - off[i]);
      }
      auto median_of = [](const SpanBuffer& b, SpanName n) {
        return Median(Durations(b, n));
      };
      metrics = {
          {"sql.parse_us", "us", median_of(tw, kParse)},
          {"compiler.compile_ms", "ms", median_of(tw, kCompile) / 1e3},
          {"compiler.tir_ms", "ms", median_of(tw, kTir) / 1e3},
          {"compiler.maps", "count", static_cast<double>(traced.maps)},
          {"compiler.statements", "count",
           static_cast<double>(traced.statements)},
          {"codegen.emit_ms", "ms", median_of(tw, kEmit) / 1e3},
          {"codegen.lines", "count", static_cast<double>(traced.lines)},
          {"ingest.build_us", "us", median_of(tw, kBuild)},
          {"ingest.validate_us", "us", median_of(tw, kValidate)},
          {"apply.batch_us", "us", median_of(tapply, kApplyOff)},
          {"apply.batch_us_2t", "us", median_of(tapply, kApply2t)},
          {"serving.publish_us", "us", Median(publish)},
          {"serving.view_rows", "count", Mean(traced.view_rows)},
          {"serving.delta_rows", "count", Mean(traced.delta_rows)},
          {"serving.snapshot_us", "us", median_of(trd, kSnapshot)},
          {"serving.scan_us", "us", median_of(trd, kScan)},
          {"serving.poll_us", "us", median_of(tsub, kPoll)},
          {"state.bytes", "bytes", static_cast<double>(traced.state_bytes)},
          {"state.map_entries", "count",
           static_cast<double>(traced.map_entries)},
          {"log.append_us", "us", median_of(tw, kLogAppend)},
          {"log.sync_us", "us", median_of(tw, kLogSync)},
          {"log.bytes_per_event", "bytes",
           static_cast<double>(traced.log_bytes) /
               static_cast<double>(traced.events)},
          {"checkpoint.write_ms", "ms", median_of(tw, kCheckpoint) / 1e3},
          {"checkpoint.bytes", "bytes",
           static_cast<double>(traced.checkpoint_bytes)},
          {"recovery.restore_ms", "ms", median_of(tw, kRestore) / 1e3},
          {"recovery.replay_ms", "ms", median_of(tw, kReplay) / 1e3},
      };
      std::printf("per-layer:");
      for (const Metric& m : metrics) {
        std::printf(" %s=%.6g %s", m.name.c_str(), m.value, m.unit.c_str());
      }
      std::printf("\n");
    }
  }

  std::printf("operations: %llu attempted, %llu failed; %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "all outputs match SQLite" : "CHECKS FAILED");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
