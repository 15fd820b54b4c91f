// Workload definitions and seeded stream generation for the ingest-path
// benchmark. Streams are generated before any timing starts, into a compact
// event array; the replay turns each event into a Row only when it assembles
// the batch, which is the cost a feed adapter pays in front of the engine.
//
// The generators also keep the benchmark's own record of the live base rows
// (a multiset per relation). That record, not any engine, is what the SQLite
// oracle loads at the end of a run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class EngineKind { kCompiled, kInterpreted };

/// One delta of a generated stream. `cols` holds the first arity(rel)
/// integer columns; the rest are unused.
struct StreamEvent {
  std::array<int64_t, 6> cols{};
  uint8_t rel = 0;
  bool insert = true;
};

/// Live base rows per relation (row -> multiplicity), maintained by the
/// generator as it emits each event.
using LiveRows = std::vector<std::map<std::vector<int64_t>, int64_t>>;

struct WorkloadSpec {
  std::string name;
  std::string query_file;  ///< under the benchmark's queries/ directory
  EngineKind engine = EngineKind::kCompiled;
  size_t batch_events = 0;
  /// A run is `rounds` rounds, each a fresh set-up and a replay of the whole
  /// stream: `checkpoints` segments of `checkpoint_every` batches, then a
  /// tail of `tail_batches` that only the batch log covers at the crash.
  size_t rounds = 0;
  size_t checkpoint_every = 0;
  size_t checkpoints = 0;
  size_t tail_batches = 0;
  /// Order book shape (orderbook-*).
  int brokers = 0;
  size_t book_per_side = 0;
  /// TPC-H loading stream shape (warehouse-*).
  int customers = 0, suppliers = 0, parts = 0;

  size_t num_batches() const {
    return checkpoints * checkpoint_every + tail_batches;
  }
};

/// The benchmark's workloads. The number of rounds scales with `seconds`
/// (10 is the nominal run); the work never depends on elapsed time.
std::vector<WorkloadSpec> Workloads(int seconds);
const WorkloadSpec* FindWorkload(const std::vector<WorkloadSpec>& all,
                                 const std::string& name);

struct Stream {
  std::vector<std::string> relations;
  std::vector<size_t> arity;
  std::vector<StreamEvent> preload;  ///< applied during set-up
  /// The replayed stream: batch i is events [i * batch_events, (i + 1) *
  /// batch_events), the last batch also takes the few events past the end.
  std::vector<StreamEvent> events;
  LiveRows live;                     ///< after preload + events

  size_t InputBytes() const {
    return (preload.capacity() + events.capacity()) * sizeof(StreamEvent);
  }
};

/// Deterministic in (spec, seed).
Stream GenerateStream(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
