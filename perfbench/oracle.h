// The correctness oracle: SQLite (the system library, in memory) evaluates
// the workload's query over the benchmark's own record of the live base
// rows, and engine views are compared with its result as exact multisets of
// integer rows.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "workloads.h"

namespace perfbench {

using IntRows = std::vector<std::vector<int64_t>>;  ///< sorted multiset

/// Runs every statement of `script` (CREATE TABLEs, then the SELECT) on an
/// in-memory SQLite database loaded with `live`, and returns the SELECT's
/// result. Returns false with `error` set on any SQLite failure.
bool OracleResult(const std::string& script, const Stream& stream,
                  IntRows* out, std::string* error);

/// An engine view as a sorted multiset of integer rows. Non-integral values
/// make the conversion fail (a mismatch for an all-integer query).
bool ViewToIntRows(const dbtoaster::exec::QueryResult& view, IntRows* out,
                   std::string* error);

/// Empty when equal; otherwise a short description of the first difference.
std::string CompareRows(const IntRows& expected, const IntRows& actual);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
