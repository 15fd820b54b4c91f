#include "oracle.h"

#include <sqlite3.h>

#include <algorithm>
#include <cmath>
#include <memory>

namespace perfbench {
namespace {

struct DbClose {
  void operator()(sqlite3* db) const { sqlite3_close(db); }
};
struct StmtFinalize {
  void operator()(sqlite3_stmt* s) const { sqlite3_finalize(s); }
};
using StmtPtr = std::unique_ptr<sqlite3_stmt, StmtFinalize>;

std::string RowText(const std::vector<int64_t>& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(row[i]);
  }
  return s + ")";
}

bool LoadLiveRows(sqlite3* db, const Stream& stream, std::string* error) {
  if (sqlite3_exec(db, "BEGIN", nullptr, nullptr, nullptr) != SQLITE_OK) {
    *error = sqlite3_errmsg(db);
    return false;
  }
  for (size_t r = 0; r < stream.relations.size(); ++r) {
    std::string sql = "INSERT INTO " + stream.relations[r] + " VALUES (";
    for (size_t c = 0; c < stream.arity[r]; ++c) sql += c ? ",?" : "?";
    sql += ")";
    sqlite3_stmt* raw = nullptr;
    if (sqlite3_prepare_v2(db, sql.c_str(), -1, &raw, nullptr) != SQLITE_OK) {
      *error = sqlite3_errmsg(db);
      return false;
    }
    StmtPtr insert(raw);
    for (const auto& [row, count] : stream.live[r]) {
      for (int64_t k = 0; k < count; ++k) {
        for (size_t c = 0; c < row.size(); ++c) {
          sqlite3_bind_int64(insert.get(), static_cast<int>(c + 1), row[c]);
        }
        if (sqlite3_step(insert.get()) != SQLITE_DONE) {
          *error = sqlite3_errmsg(db);
          return false;
        }
        sqlite3_reset(insert.get());
      }
    }
  }
  if (sqlite3_exec(db, "COMMIT", nullptr, nullptr, nullptr) != SQLITE_OK) {
    *error = sqlite3_errmsg(db);
    return false;
  }
  return true;
}

}  // namespace

bool OracleResult(const std::string& script, const Stream& stream,
                  IntRows* out, std::string* error) {
  sqlite3* raw_db = nullptr;
  if (sqlite3_open(":memory:", &raw_db) != SQLITE_OK) {
    *error = "sqlite3_open failed";
    sqlite3_close(raw_db);
    return false;
  }
  std::unique_ptr<sqlite3, DbClose> db(raw_db);

  // Walk the script statement by statement: DDL runs before the rows are
  // loaded, the one result-producing statement (the query) after.
  std::string query;
  const char* tail = script.c_str();
  while (*tail != '\0') {
    sqlite3_stmt* raw = nullptr;
    const char* start = tail;
    if (sqlite3_prepare_v2(db.get(), start, -1, &raw, &tail) != SQLITE_OK) {
      *error = sqlite3_errmsg(db.get());
      return false;
    }
    if (raw == nullptr) break;  // trailing whitespace or comments
    StmtPtr stmt(raw);
    if (sqlite3_column_count(stmt.get()) > 0) {
      query.assign(start, static_cast<size_t>(tail - start));
      continue;
    }
    if (sqlite3_step(stmt.get()) != SQLITE_DONE) {
      *error = sqlite3_errmsg(db.get());
      return false;
    }
  }
  if (query.empty()) {
    *error = "script has no query";
    return false;
  }
  if (!LoadLiveRows(db.get(), stream, error)) return false;

  sqlite3_stmt* raw = nullptr;
  if (sqlite3_prepare_v2(db.get(), query.c_str(), -1, &raw, nullptr) !=
      SQLITE_OK) {
    *error = sqlite3_errmsg(db.get());
    return false;
  }
  StmtPtr stmt(raw);
  const int cols = sqlite3_column_count(stmt.get());
  out->clear();
  int rc;
  while ((rc = sqlite3_step(stmt.get())) == SQLITE_ROW) {
    std::vector<int64_t> row;
    for (int c = 0; c < cols; ++c) {
      if (sqlite3_column_type(stmt.get(), c) != SQLITE_INTEGER) {
        *error = "oracle produced a non-integer value in column " +
                 std::to_string(c);
        return false;
      }
      row.push_back(sqlite3_column_int64(stmt.get(), c));
    }
    out->push_back(std::move(row));
  }
  if (rc != SQLITE_DONE) {
    *error = sqlite3_errmsg(db.get());
    return false;
  }
  std::sort(out->begin(), out->end());
  return true;
}

bool ViewToIntRows(const dbtoaster::exec::QueryResult& view, IntRows* out,
                   std::string* error) {
  out->clear();
  for (const auto& [row, mult] : view.rows) {
    std::vector<int64_t> ints;
    for (const dbtoaster::Value& v : row) {
      if (v.is_int()) {
        ints.push_back(v.AsInt());
        continue;
      }
      const double d = v.is_double() ? v.AsDouble() : std::nan("");
      if (!(std::fabs(d) < 9.0e15) || d != std::trunc(d)) {
        *error = "view value " + v.ToString() + " is not an exact integer";
        return false;
      }
      ints.push_back(static_cast<int64_t>(d));
    }
    if (mult < 0) {
      *error = "view row " + RowText(ints) + " has negative multiplicity";
      return false;
    }
    for (int64_t k = 0; k < mult; ++k) out->push_back(ints);
  }
  std::sort(out->begin(), out->end());
  return true;
}

std::string CompareRows(const IntRows& expected, const IntRows& actual) {
  if (expected == actual) return "";
  std::vector<std::vector<int64_t>> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  std::string s = std::to_string(expected.size()) + " expected rows, " +
                  std::to_string(actual.size()) + " actual; " +
                  std::to_string(missing.size()) + " missing, " +
                  std::to_string(extra.size()) + " unexpected";
  if (!missing.empty()) s += "; first missing " + RowText(missing.front());
  if (!extra.empty()) s += "; first unexpected " + RowText(extra.front());
  return s;
}

}  // namespace perfbench
