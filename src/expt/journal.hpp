#pragma once

/// Campaign journals — the one on-disk form of completed campaign cells.
///
/// Both ways of splitting a campaign write the same bytes:
///
///  * the elastic coordinator (campaign_service.hpp) appends one record
///    per completed cell to `campaign_<scale>_<fp>.journal` and replays
///    it after a crash;
///  * `--shard=i/N` runs `cells_for_shard(plan, i, N)` and writes
///    `shard_<i>_of_<N>.journal` in one atomic replace — exactly the bytes
///    the coordinator's journal would hold for those cells.
///
/// `--merge=DIR` replays every `*.journal` under DIR and reassembles the
/// unsharded record set, so the reduced indicator CSV is byte-for-byte
/// the one `ExperimentDriver` writes.
///
/// Format (line-oriented ASCII through common/line_codec.hpp; doubles are
/// `%.17g`, so decoded fronts are bitwise equal to the originals):
///
///   aedbmls-campaign-journal v2 <fingerprint hex> <cells in the plan>
///   cell <index> <seed> <evaluations> <front_size> <wall_seconds>
///        <algorithm> <scenario> <telemetry_lines>    (one line)
///   tcounter|tgauge|thist ...                        (telemetry_lines lines,
///                                                     common/telemetry.hpp)
///   point <n_obj> <n_x> <cv> <f...> <x...>           (front_size lines)
///   crc <8 hex>                                      (CRC-32 of the block)
///   cell ...                                         (next record)
///
/// The lines from `cell` up to (not including) `crc` are one cell block —
/// also the payload of the elastic `result` message.  A record counts only
/// once its `crc` line verifies, it decodes, it is not a duplicate, and
/// its metadata matches the plan's cell table.  One replay loop checks all
/// of that under two policies: the coordinator keeps the valid prefix (a
/// torn tail or stale header just re-runs the lost cells), while the merge
/// rejects the first defect, naming the file and line.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "expt/experiment.hpp"

namespace aedbmls::expt {

/// One completed grid cell tagged with its plan index — the unit journals
/// store and elastic workers return.
struct CellResult {
  std::size_t index = 0;
  RunRecord record;
};

/// The cells of shard `shard_index` of `shard_count`: a strided partition
/// (cell i belongs to shard i % shard_count), so every shard receives a
/// representative mix of scenarios and algorithms instead of a contiguous
/// scenario block.  Deterministic, and the union over all shards is
/// exactly `plan.cells()`.  Throws std::invalid_argument when
/// `shard_count == 0` or `shard_index >= shard_count`.
[[nodiscard]] std::vector<ExperimentPlan::Cell> cells_for_shard(
    const ExperimentPlan& plan, std::size_t shard_index,
    std::size_t shard_count);

/// True when `record` carries the algorithm, scenario and seed of `cell`.
[[nodiscard]] bool matches_cell(const RunRecord& record,
                                const ExperimentPlan::Cell& cell);

/// Serialises one cell result as a cell block (format above, no `crc`
/// line).  Throws std::invalid_argument when a name is empty or contains
/// whitespace.
[[nodiscard]] std::string encode_cell_result(const CellResult& result);

/// Parses one cell block produced by `encode_cell_result`.  `total_cells`
/// bounds the cell index (pass `plan.cell_count()`).  Throws
/// std::invalid_argument on anything malformed, truncated, or trailing.
[[nodiscard]] CellResult decode_cell_result(std::string_view text,
                                            std::size_t total_cells);

/// One journal record: the cell block followed by its `crc` line.
[[nodiscard]] std::string journal_record(const CellResult& result);

/// A whole journal for `plan`: the header line, then one record per
/// result in the given order.
[[nodiscard]] std::string encode_journal(
    const ExperimentPlan& plan, const std::vector<CellResult>& results);

/// `<dir>/campaign_<scale>_<fp hex>.journal` — the coordinator's
/// crash-resume journal for `plan`.
[[nodiscard]] std::string campaign_journal_path(const std::string& dir,
                                                const ExperimentPlan& plan);

/// Replays the crash-resume journal at `path` for `plan`, returning the
/// valid prefix of its records (empty on a missing or empty file or a
/// header that does not match the plan).  Never throws on bad bytes; logs
/// a warning naming the first defect.
[[nodiscard]] std::vector<CellResult> load_campaign_journal(
    const std::string& path, const ExperimentPlan& plan);

/// Writes `results` (shard `shard_index` of `shard_count`) as the journal
/// `<dir>/shard_<i>_of_<N>.journal`, creating `dir` on demand, via one
/// atomic replace.  Returns the path; throws std::runtime_error when
/// unwritable.
std::string write_shard_journal(const std::string& dir,
                                const ExperimentPlan& plan,
                                std::size_t shard_index,
                                std::size_t shard_count,
                                const std::vector<CellResult>& results);

/// The whole `--merge` mode: strictly replays every `*.journal` regular
/// file under `journal_dir` in filename order, reassembles the grid and
/// reduces it.  Throws std::invalid_argument when the directory holds no
/// journal, on any defect in one (bad header, plan fingerprint or cell
/// count mismatch, CRC mismatch, torn tail, decode error, cell index out
/// of range, metadata contradicting the plan — each naming the file and
/// line), on a cell present in two journals, and on missing cells (naming
/// the first).  Always writes the canonical indicator CSV to
/// `indicator_csv_path(options.cache_dir, plan)` and the per-scenario
/// reference fronts to `<cache_dir>/reference_<scale>_<fp>_<scenario>.csv`
/// — the artifacts CI diffs against an unsharded run.  Records are
/// populated iff `options.collect_records`.
[[nodiscard]] ExperimentResult merge_campaign(
    const ExperimentPlan& plan, const std::string& journal_dir,
    const ExperimentDriver::Options& options);

}  // namespace aedbmls::expt
