#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "src/workload/orderbook.h"
#include "src/workload/tpch.h"

namespace perfbench {
namespace {

/// Appends events to a stream section while keeping the live-row record.
class Recorder {
 public:
  Recorder(Stream* stream, std::vector<StreamEvent>* out)
      : stream_(stream), out_(out) {}

  void Emit(uint8_t rel, bool insert, const std::vector<int64_t>& row) {
    StreamEvent e;
    e.rel = rel;
    e.insert = insert;
    std::copy(row.begin(), row.end(), e.cols.begin());
    out_->push_back(e);
    // Generators only delete live rows, so a count never goes negative.
    auto& rows = stream_->live[rel];
    auto it = rows.try_emplace(row, 0).first;
    it->second += insert ? 1 : -1;
    if (it->second == 0) rows.erase(it);
  }

  /// Records a generator's events (all columns integer).
  void Emit(const std::vector<dbtoaster::Event>& events) {
    const auto& names = stream_->relations;
    std::vector<int64_t> row;
    for (const dbtoaster::Event& e : events) {
      row.clear();
      for (const dbtoaster::Value& v : e.tuple) row.push_back(v.AsInt());
      const auto rel = std::find(names.begin(), names.end(), e.relation);
      Emit(static_cast<uint8_t>(rel - names.begin()),
           e.kind == dbtoaster::EventKind::kInsert, row);
    }
  }

 private:
  Stream* stream_;
  std::vector<StreamEvent>* out_;
};

// ---- order book ----------------------------------------------------------

void GenerateOrderBook(const WorkloadSpec& spec, uint64_t seed, Stream* st) {
  namespace wl = dbtoaster::workload;
  st->relations = {"BIDS", "ASKS"};
  st->arity = {4, 4};
  st->live.assign(2, {});
  wl::OrderBookConfig cfg;
  cfg.seed = seed;
  cfg.num_brokers = spec.brokers;
  cfg.book_soft_cap = spec.book_per_side;
  wl::OrderBookGenerator gen(cfg);

  // Run the book up to its target size. Set-up preloads only the orders
  // that are live at that point, one insert each.
  std::vector<StreamEvent> growth;
  Recorder grow(st, &growth);
  std::vector<dbtoaster::Event> action;
  while (gen.live_bids() < spec.book_per_side ||
         gen.live_asks() < spec.book_per_side) {
    action.clear();
    gen.Next(&action);
    grow.Emit(action);
  }
  for (size_t rel = 0; rel < st->live.size(); ++rel) {
    for (const auto& [row, count] : st->live[rel]) {
      StreamEvent e;
      e.rel = static_cast<uint8_t>(rel);
      std::copy(row.begin(), row.end(), e.cols.begin());
      st->preload.insert(st->preload.end(), static_cast<size_t>(count), e);
    }
  }

  const size_t n = spec.num_batches() * spec.batch_events;
  st->events.reserve(n + 2);
  Recorder rec(st, &st->events);
  while (st->events.size() < n) {
    action.clear();
    gen.Next(&action);
    rec.Emit(action);
  }
}

// ---- TPC-H loading stream ------------------------------------------------

void GenerateWarehouse(const WorkloadSpec& spec, uint64_t seed, Stream* st) {
  namespace wl = dbtoaster::workload;
  const dbtoaster::Catalog catalog = wl::TpchCatalog();
  for (const dbtoaster::Schema& s : catalog.relations()) {
    st->relations.push_back(s.name());
    st->arity.push_back(s.num_columns());
  }
  st->live.assign(st->relations.size(), {});

  wl::TpchConfig cfg;
  cfg.seed = seed;
  cfg.num_customers = spec.customers;
  cfg.num_suppliers = spec.suppliers;
  cfg.num_parts = spec.parts;
  wl::TpchGenerator gen(cfg);
  Recorder pre(st, &st->preload);
  pre.Emit(gen.DimensionLoad());

  const size_t n = spec.num_batches() * spec.batch_events;
  st->events.reserve(n + 32);
  Recorder rec(st, &st->events);
  std::vector<dbtoaster::Event> order;
  while (st->events.size() < n) {
    order.clear();
    gen.NextOrder(&order);
    rec.Emit(order);
  }
}

}  // namespace

std::vector<WorkloadSpec> Workloads(int seconds) {
  auto rounds = [seconds](size_t nominal) {
    const double k = std::round(static_cast<double>(nominal) * seconds / 10.0);
    return static_cast<size_t>(std::max(1.0, k));
  };
  std::vector<WorkloadSpec> all;

  WorkloadSpec serve;
  serve.name = "orderbook-serve";
  serve.query_file = "mm.sql";
  serve.engine = EngineKind::kCompiled;
  serve.batch_events = 1024;
  serve.rounds = rounds(10);
  serve.checkpoint_every = 100;
  serve.checkpoints = 2;
  serve.tail_batches = 150;
  serve.brokers = 2000;
  serve.book_per_side = 8000;
  all.push_back(serve);

  WorkloadSpec wh;
  wh.name = "warehouse-q41";
  wh.query_file = "q41.sql";
  wh.engine = EngineKind::kCompiled;
  wh.batch_events = 64;
  wh.rounds = rounds(4);
  wh.checkpoint_every = 50;
  wh.checkpoints = 12;
  wh.tail_batches = 25;
  wh.customers = 200;
  wh.suppliers = 50;
  wh.parts = 100;
  all.push_back(wh);

  WorkloadSpec interp;
  interp.name = "orderbook-interp";
  interp.query_file = "mm.sql";
  interp.engine = EngineKind::kInterpreted;
  interp.batch_events = 512;
  interp.rounds = rounds(8);
  interp.checkpoint_every = 50;
  interp.checkpoints = 2;
  interp.tail_batches = 80;
  interp.brokers = 10;
  interp.book_per_side = 2000;
  all.push_back(interp);
  return all;
}

const WorkloadSpec* FindWorkload(const std::vector<WorkloadSpec>& all,
                                 const std::string& name) {
  for (const WorkloadSpec& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Stream GenerateStream(const WorkloadSpec& spec, uint64_t seed) {
  Stream st;
  if (spec.query_file == "mm.sql") {
    GenerateOrderBook(spec, seed, &st);
  } else {
    GenerateWarehouse(spec, seed, &st);
  }
  return st;
}

}  // namespace perfbench
