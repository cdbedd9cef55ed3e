#include "expt/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/durable_file.hpp"
#include "common/line_codec.hpp"
#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "moo/core/front_io.hpp"

namespace aedbmls::expt {
namespace {

// v2: every cell block is followed by a `crc <8 hex>` line; v1 journals
// (no per-record checksums) have a different header and replay nothing.
constexpr std::string_view kMagic = "aedbmls-campaign-journal";
constexpr std::string_view kVersion = "v2";
constexpr std::string_view kCrcPrefix = "crc ";

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  throw std::invalid_argument("cell block line " +
                              std::to_string(line_number) + ": " + what);
}

const std::string& checked_name(const std::string& name, const char* what) {
  const auto tokens = codec::tokens(name);
  if (tokens.size() != 1 || tokens[0].size() != name.size()) {
    throw std::invalid_argument(std::string("cell block ") + what + " '" +
                                name + "' is empty or contains whitespace");
  }
  return name;
}

std::uint64_t to_u64(std::string_view token, std::size_t line_number,
                     const char* what) {
  const auto value = codec::parse_u64(token);
  if (!value) {
    fail(line_number,
         std::string("bad ") + what + " '" + std::string(token) + "'");
  }
  return *value;
}

double to_double(std::string_view token, std::size_t line_number,
                 const char* what) {
  const auto value = codec::parse_double(token);
  if (!value) {
    fail(line_number,
         std::string("bad ") + what + " '" + std::string(token) + "'");
  }
  return *value;
}

void require_next(codec::LineReader& reader, const char* expected) {
  if (!reader.next()) {
    fail(reader.line_number() + 1, std::string("truncated, expected ") +
                                       expected);
  }
}

std::string journal_header(const std::string& fp_hex, std::size_t cells) {
  return std::string(kMagic) + " " + std::string(kVersion) + " " + fp_hex +
         " " + std::to_string(cells);
}

/// Why `line` is not the header of `plan`'s journal; nullopt when it is.
std::optional<std::string> header_defect(std::string_view line,
                                         const std::string& fp_hex,
                                         std::size_t cells) {
  const std::string expected = journal_header(fp_hex, cells);
  if (line == expected) return std::nullopt;
  const auto tokens = codec::tokens(line);
  if (tokens.size() == 4 && tokens[0] == kMagic && tokens[1] == kVersion) {
    if (tokens[2] != fp_hex) {
      return "plan fingerprint mismatch (journal " + std::string(tokens[2]) +
             ", plan " + fp_hex + ") — it was run against a different plan";
    }
    if (tokens[3] != std::to_string(cells)) {
      return "cell count mismatch (journal " + std::string(tokens[3]) +
             ", plan " + std::to_string(cells) + ")";
    }
  }
  return "bad header '" + std::string(line) + "', expected '" + expected +
         "'";
}

/// What one pass over a journal's bytes yielded: the records before the
/// first defect, and that defect ("line N: what"; empty when none).
struct Replay {
  std::vector<CellResult> cells;
  std::string defect;
};

/// The one replay loop behind both policies.  `seen` marks cells already
/// replayed; the merge shares it across files so a cell present in two
/// shard journals is caught.
Replay replay(std::string_view text, const std::string& fp_hex,
              const std::vector<ExperimentPlan::Cell>& cells,
              std::vector<bool>& seen) {
  Replay out;
  codec::LineReader reader(text);
  const auto stop = [&](const std::string& what) {
    out.defect = "line " + std::to_string(reader.line_number()) + ": " + what;
  };
  if (!reader.next()) {
    stop("empty journal, expected a header");
    return out;
  }
  if (auto defect = header_defect(reader.line(), fp_hex, cells.size())) {
    stop(*defect);
    return out;
  }
  std::string block;
  while (reader.next()) {
    const std::string_view line = reader.line();
    if (!line.starts_with(kCrcPrefix)) {
      block += line;
      block += '\n';
      continue;
    }
    if (line.substr(kCrcPrefix.size()) != io::crc32_hex(block)) {
      stop("crc mismatch (corrupt record)");
      return out;
    }
    CellResult result;
    try {
      result = decode_cell_result(block, cells.size());
    } catch (const std::invalid_argument& error) {
      stop(error.what());
      return out;
    }
    const std::string cell = "cell " + std::to_string(result.index);
    if (seen[result.index]) {
      stop(cell + " already replayed (overlapping or duplicate shards)");
      return out;
    }
    if (!matches_cell(result.record, cells[result.index])) {
      stop(cell +
           " metadata contradicts the plan's cell table "
           "(algorithm/scenario/seed)");
      return out;
    }
    seen[result.index] = true;
    out.cells.push_back(std::move(result));
    block.clear();
  }
  if (!block.empty()) stop("torn tail (a record without its crc line)");
  return out;
}

}  // namespace

std::vector<ExperimentPlan::Cell> cells_for_shard(const ExperimentPlan& plan,
                                                  std::size_t shard_index,
                                                  std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("shard count must be >= 1");
  }
  if (shard_index >= shard_count) {
    throw std::invalid_argument(
        "shard index " + std::to_string(shard_index) + " out of range for " +
        std::to_string(shard_count) + " shards");
  }
  auto cells = plan.cells();
  std::vector<ExperimentPlan::Cell> out;
  out.reserve(cells.size() / shard_count + 1);
  for (std::size_t i = shard_index; i < cells.size(); i += shard_count) {
    out.push_back(std::move(cells[i]));
  }
  return out;
}

bool matches_cell(const RunRecord& record, const ExperimentPlan::Cell& cell) {
  return record.algorithm == cell.algorithm &&
         record.scenario == cell.scenario && record.run_seed == cell.seed;
}

std::string encode_cell_result(const CellResult& result) {
  const RunRecord& record = result.record;
  // The cell line's trailing count announces how many telemetry lines
  // follow it (before the points), so the decoder needs no look-ahead.
  const std::vector<std::string> telemetry_lines =
      telemetry::encode_snapshot(record.telemetry);
  std::string out = "cell " + std::to_string(result.index) + ' ' +
                    std::to_string(record.run_seed) + ' ' +
                    std::to_string(record.evaluations) + ' ' +
                    std::to_string(record.front.size()) + ' ';
  codec::append_double(out, record.wall_seconds);
  out += ' ';
  out += checked_name(record.algorithm, "algorithm name");
  out += ' ';
  out += checked_name(record.scenario, "scenario key");
  out += ' ';
  out += std::to_string(telemetry_lines.size());
  out += '\n';
  for (const std::string& line : telemetry_lines) {
    out += line;
    out += '\n';
  }
  for (const moo::Solution& solution : record.front) {
    out += "point " + std::to_string(solution.objectives.size()) + ' ' +
           std::to_string(solution.x.size()) + ' ';
    codec::append_double(out, solution.constraint_violation);
    for (const double f : solution.objectives) {
      out += ' ';
      codec::append_double(out, f);
    }
    for (const double x : solution.x) {
      out += ' ';
      codec::append_double(out, x);
    }
    out += '\n';
  }
  return out;
}

CellResult decode_cell_result(std::string_view text,
                              std::size_t total_cells) {
  codec::LineReader reader(text);
  require_next(reader, "a 'cell' line");
  const auto cell = codec::tokens(reader.line());
  const std::size_t n = reader.line_number();
  if (cell.size() != 9 || cell[0] != "cell") {
    fail(n, "expected a 'cell' line, got '" + std::string(reader.line()) +
                "'");
  }
  CellResult result;
  result.index = to_u64(cell[1], n, "cell index");
  if (result.index >= total_cells) fail(n, "cell index out of range");
  RunRecord& record = result.record;
  record.run_seed = to_u64(cell[2], n, "run seed");
  record.evaluations = to_u64(cell[3], n, "evaluation count");
  const std::uint64_t front_size = to_u64(cell[4], n, "front size");
  record.wall_seconds = to_double(cell[5], n, "wall seconds");
  record.algorithm = cell[6];
  record.scenario = cell[7];
  const std::uint64_t telemetry_lines =
      to_u64(cell[8], n, "telemetry line count");
  for (std::uint64_t t = 0; t < telemetry_lines; ++t) {
    require_next(reader, "a telemetry line");
    try {
      telemetry::decode_snapshot_line(reader.line(), record.telemetry);
    } catch (const std::invalid_argument& error) {
      fail(reader.line_number(), error.what());
    }
  }
  for (std::uint64_t p = 0; p < front_size; ++p) {
    require_next(reader, "a 'point' line");
    const auto point = codec::tokens(reader.line());
    const std::size_t line = reader.line_number();
    if (point.size() < 4 || point[0] != "point") {
      fail(line, "expected 'point', got '" + std::string(reader.line()) +
                     "'");
    }
    const std::uint64_t n_obj = to_u64(point[1], line, "objective count");
    const std::uint64_t n_x = to_u64(point[2], line, "variable count");
    if (n_obj > point.size() - 4 || n_x != point.size() - 4 - n_obj) {
      fail(line, "point value count mismatch");
    }
    moo::Solution solution;
    solution.constraint_violation =
        to_double(point[3], line, "constraint violation");
    solution.objectives.reserve(n_obj);
    for (std::size_t i = 0; i < n_obj; ++i) {
      solution.objectives.push_back(to_double(point[4 + i], line, "objective"));
    }
    solution.x.reserve(n_x);
    for (std::size_t i = 0; i < n_x; ++i) {
      solution.x.push_back(to_double(point[4 + n_obj + i], line, "variable"));
    }
    solution.evaluated = true;
    record.front.push_back(std::move(solution));
  }
  while (reader.next()) {
    if (!reader.line().empty()) {
      fail(reader.line_number(), "trailing content '" +
                                     std::string(reader.line()) +
                                     "' after the cell block");
    }
  }
  return result;
}

std::string journal_record(const CellResult& result) {
  const std::string block = encode_cell_result(result);
  return block + std::string(kCrcPrefix) + io::crc32_hex(block) + "\n";
}

std::string encode_journal(const ExperimentPlan& plan,
                           const std::vector<CellResult>& results) {
  std::string out = journal_header(codec::hex_u64(plan.fingerprint()),
                                   plan.cell_count()) +
                    "\n";
  for (const CellResult& result : results) out += journal_record(result);
  return out;
}

std::string campaign_journal_path(const std::string& dir,
                                  const ExperimentPlan& plan) {
  return dir + "/campaign_" + plan.scale.name + "_" +
         codec::hex_u64(plan.fingerprint()) + ".journal";
}

std::vector<CellResult> load_campaign_journal(const std::string& path,
                                              const ExperimentPlan& plan) {
  const std::string text = io::read_file(path).value_or("");
  if (text.empty()) return {};
  const auto cells = plan.cells();
  std::vector<bool> seen(cells.size(), false);
  Replay replayed =
      replay(text, codec::hex_u64(plan.fingerprint()), cells, seen);
  // Tolerant by design: a stale header, a bit-flipped record or a torn
  // tail (the coordinator died mid-append) keeps the valid prefix — the
  // lost cells simply run again.
  if (!replayed.defect.empty()) {
    log_warn("elastic: journal ", path, " ", replayed.defect,
             "; replaying the valid prefix (", replayed.cells.size(),
             " cells)");
  }
  return std::move(replayed.cells);
}

std::string write_shard_journal(const std::string& dir,
                                const ExperimentPlan& plan,
                                std::size_t shard_index,
                                std::size_t shard_count,
                                const std::vector<CellResult>& results) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/shard_" + std::to_string(shard_index) +
                           "_of_" + std::to_string(shard_count) + ".journal";
  // Atomic: a merge must never see half a shard.
  io::atomic_write_file_or_throw(path, encode_journal(plan, results));
  return path;
}

ExperimentResult merge_campaign(const ExperimentPlan& plan,
                                const std::string& journal_dir,
                                const ExperimentDriver::Options& options) {
  namespace fs = std::filesystem;
  validate_plan(plan);
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(journal_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".journal") {
      paths.push_back(entry.path());
    }
  }
  if (ec) {
    throw std::invalid_argument("cannot read journal directory " +
                                journal_dir + ": " + ec.message());
  }
  if (paths.empty()) {
    throw std::invalid_argument("no *.journal files under " + journal_dir);
  }
  std::sort(paths.begin(), paths.end());

  // Strict: the first defect in any file stops the merge — a shard must
  // be regenerated, never half-trusted.
  const auto cells = plan.cells();
  const std::string fp_hex = codec::hex_u64(plan.fingerprint());
  std::vector<RunRecord> records(cells.size());
  std::vector<bool> seen(cells.size(), false);
  for (const fs::path& path : paths) {
    const auto text = io::read_file(path.string());
    if (!text) {
      throw std::invalid_argument("cannot read journal " + path.string());
    }
    Replay replayed = replay(*text, fp_hex, cells, seen);
    if (!replayed.defect.empty()) {
      throw std::invalid_argument(path.string() + " " + replayed.defect);
    }
    for (CellResult& result : replayed.cells) {
      records[result.index] = std::move(result.record);
    }
  }
  const std::size_t missing =
      static_cast<std::size_t>(std::count(seen.begin(), seen.end(), false));
  if (missing > 0) {
    const std::size_t first = static_cast<std::size_t>(
        std::find(seen.begin(), seen.end(), false) - seen.begin());
    throw std::invalid_argument(
        std::to_string(missing) + " of " + std::to_string(cells.size()) +
        " cells missing (first missing: cell " + std::to_string(first) +
        ") — merge needs every shard of the campaign");
  }

  ExperimentResult result;
  result.samples = reduce_to_samples(plan, records);
  result.telemetry = merge_telemetry(records);
  // The canonical artifacts CI diffs against an unsharded run: the
  // fingerprint-keyed indicator CSV (same bytes as the driver's cache
  // store, CRC trailer included) and the per-scenario reference fronts.
  // Unlike the drivers' best-effort cache store, a failed write throws:
  // these files are the whole point of the merge.
  fs::create_directories(options.cache_dir, ec);
  io::atomic_write_file_or_throw(
      indicator_csv_path(options.cache_dir, plan),
      io::with_crc_trailer(indicator_csv(result.samples)));
  for (const std::string& scenario : plan.scenarios) {
    io::atomic_write_file_or_throw(
        options.cache_dir + "/reference_" + plan.scale.name + "_" + fp_hex +
            "_" + scenario + ".csv",
        moo::front_to_csv(reference_front(records, scenario)));
  }
  if (options.collect_records) result.records = std::move(records);
  return result;
}

}  // namespace aedbmls::expt
