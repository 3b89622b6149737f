// Shared table-printing and JSON-reporting helpers for the benches.
//
// Every bench binary regenerates one experiment from DESIGN.md §2 and prints
// a markdown table; EXPERIMENTS.md records the expected shapes. Keeping the
// formatting in one place makes the bench output diffable across runs.
//
// Machine-readable output: pass `--json out.json` (or `--json=out.json`) to
// any wired bench and it writes {"bench": ..., "tables": {name: [rows]}},
// one JSON object per row keyed by column header — the format the BENCH_*
// perf-trajectory tooling ingests.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace overlay::bench {

/// Appends `s` to `out` as a JSON string literal.
inline void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      *out += '\\';
      *out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      *out += buf;
    } else {
      *out += ch;
    }
  }
  *out += '"';
}

/// Markdown-ish fixed-width table writer that remembers cell types so the
/// same rows can be re-emitted as JSON.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Cells>
  void Row(Cells... cells) {
    std::vector<Cell> row;
    (row.push_back(ToCell(cells)), ...);
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::vector<std::size_t> width(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) width[c] = std::max(width[c], row[c].text.size());
      }
    }
    PrintHeaderRow(width);
    std::string sep = "|";
    for (const std::size_t w : width) {
      sep += std::string(w + 2, '-') + "|";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row, width);
  }

  /// Appends this table as a JSON array of per-row objects keyed by header.
  void AppendJson(std::string* out) const {
    *out += "[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      *out += r == 0 ? "\n" : ",\n";
      *out += "      {";
      for (std::size_t c = 0; c < rows_[r].size() && c < headers_.size();
           ++c) {
        if (c > 0) *out += ", ";
        AppendJsonString(out, headers_[c]);
        *out += ": ";
        const Cell& cell = rows_[r][c];
        switch (cell.kind) {
          case Cell::kNumber:
            // %.3f prints non-finite floats as inf/nan, which are not JSON
            // tokens; emit null so the document stays parseable.
            if (cell.text.find_first_not_of("-0123456789.") !=
                std::string::npos) {
              *out += "null";
            } else {
              *out += cell.text;
            }
            break;
          case Cell::kBool:
            *out += cell.text == "yes" ? "true" : "false";
            break;
          case Cell::kString:
            AppendJsonString(out, cell.text);
            break;
        }
      }
      *out += "}";
    }
    *out += "\n    ]";
  }

 private:
  struct Cell {
    enum Kind { kString, kNumber, kBool };
    std::string text;
    Kind kind;
  };

  static Cell ToCell(const std::string& s) { return {s, Cell::kString}; }
  static Cell ToCell(const char* s) { return {s, Cell::kString}; }
  static Cell ToCell(bool b) { return {b ? "yes" : "NO", Cell::kBool}; }
  template <typename T>
  static Cell ToCell(T value) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[40];
      const int len = std::snprintf(buf, sizeof(buf), "%.3f",
                                    static_cast<double>(value));
      if (len < 0 || len >= static_cast<int>(sizeof(buf))) {
        // Magnitude too large for fixed notation: fall back to scientific
        // rather than silently truncating the digits.
        std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(value));
      }
      return {buf, Cell::kNumber};
    } else {
      return {std::to_string(value), Cell::kNumber};
    }
  }

  void PrintHeaderRow(const std::vector<std::size_t>& width) const {
    std::string line = "|";
    for (std::size_t c = 0; c < width.size(); ++c) {
      line += " " + headers_[c] +
              std::string(width[c] - headers_[c].size() + 1, ' ') + "|";
    }
    std::printf("%s\n", line.c_str());
  }

  void PrintRow(const std::vector<Cell>& row,
                const std::vector<std::size_t>& width) const {
    std::string line = "|";
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c].text : "";
      line += " " + cell + std::string(width[c] - cell.size() + 1, ' ') + "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

inline void Banner(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

/// Returns the value of `--flag <v>` / `--flag=<v>` or nullptr. A following
/// argument that is itself a flag does not count as a value, so
/// `--json --n 100` reports --json as valueless instead of writing to "--n".
inline const char* FlagValue(int argc, char** argv, const char* flag) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc &&
        std::strncmp(argv[i + 1], "--", 2) != 0) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=') {
      return argv[i] + flag_len + 1;
    }
  }
  return nullptr;
}

/// True when the bare switch `--flag` appears anywhere on the command line.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Parses `--flag <v>` as a positive integer, exiting with a usage error on
/// malformed input; returns `fallback` when the flag is absent. Nest calls
/// to express flag aliases: SizeFlag(..., "--nodes", SizeFlag(..., "--n", d)).
inline std::size_t SizeFlag(int argc, char** argv, const char* flag,
                            std::size_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const std::size_t parsed =
      static_cast<std::size_t>(std::strtoull(v, &end, 10));
  if (end == v || *end != '\0' || parsed == 0) {
    std::fprintf(stderr, "%s needs a positive integer, got '%s'\n", flag, v);
    std::exit(2);
  }
  return parsed;
}

/// The compiler that built the bench, for the JSON header.
inline std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Collects named tables and writes them as one JSON document when the bench
/// was invoked with --json. The header records hw_threads and the compiler,
/// so a recorded baseline names the machine shape that produced it. Usage:
///
///   bench::JsonReport json(argc, argv, "bench_message_load");
///   ...
///   json.Add("message_load", table);
///   return json.Finish();
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string bench_name)
      : bench_name_(std::move(bench_name)),
        path_(FlagValue(argc, argv, "--json")) {
    if (path_ == nullptr) {
      // `--json` with no value must fail loudly, not silently skip output.
      for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) missing_value_ = true;
      }
    }
  }

  void Add(const std::string& table_name, const Table& t) {
    if (path_ == nullptr) return;
    tables_.emplace_back(table_name, t);
  }

  /// Writes the document if --json was given; returns a main()-style code.
  int Finish() const {
    if (missing_value_) {
      std::fprintf(stderr, "--json needs an output path\n");
      return 2;
    }
    if (path_ == nullptr) return 0;
    std::string doc = "{\n  \"bench\": \"" + bench_name_ +
                      "\",\n  \"hw_threads\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ",\n  \"compiler\": ";
    AppendJsonString(&doc, CompilerName());
    doc += ",\n  \"tables\": {";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      doc += i == 0 ? "\n" : ",\n";
      doc += "    \"" + tables_[i].first + "\": ";
      tables_[i].second.AppendJson(&doc);
    }
    doc += "\n  }\n}\n";
    std::FILE* f = std::fopen(path_, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_);
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path_);
    return 0;
  }

 private:
  std::string bench_name_;
  const char* path_;
  bool missing_value_ = false;
  std::vector<std::pair<std::string, Table>> tables_;
};

}  // namespace overlay::bench
