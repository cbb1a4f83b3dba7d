#include "c2b/sim/dram/dram.h"

#include <algorithm>

#include "c2b/obs/obs.h"

namespace c2b::sim {

void DramConfig::validate() const {
  C2B_REQUIRE(banks >= 1, "DRAM needs at least one bank");
  C2B_REQUIRE(lines_per_row >= 1, "row must hold at least one line");
  C2B_REQUIRE(t_cas >= 1 && t_rcd >= 1 && t_rp >= 1 && t_bus >= 1,
              "DRAM timing parameters must be positive");
}

DramModel::DramModel(const DramConfig& config) : config_(config) {
  config_.validate();
  banks_.resize(config_.banks);
}

std::uint64_t DramModel::access(std::uint64_t line, std::uint64_t arrival_cycle) {
  // Row-interleaved address map: consecutive rows rotate across banks, so
  // streaming access exploits bank-level parallelism like real controllers.
  const std::uint64_t row = line / config_.lines_per_row;
  BankState& bank = banks_[row % config_.banks];

  ++stats_.accesses;
  std::uint64_t start = std::max(arrival_cycle, bank.ready_cycle);
  std::uint64_t column_ready;
  if (bank.has_open_row && bank.open_row == row) {
    ++stats_.row_hits;
    column_ready = start + config_.t_cas;
  } else if (!bank.has_open_row) {
    ++stats_.row_empty;
    column_ready = start + config_.t_rcd + config_.t_cas;
  } else {
    ++stats_.row_conflicts;
    column_ready = start + config_.t_rp + config_.t_rcd + config_.t_cas;
  }
  bank.open_row = row;
  bank.has_open_row = true;
  bank.ready_cycle = column_ready;  // next column op to this bank after data

  // The shared data bus serializes bursts across banks.
  const std::uint64_t burst_start = std::max(column_ready, bus_free_);
  const std::uint64_t completion = burst_start + config_.t_bus;
  bus_free_ = completion;

  stats_.total_latency += completion - arrival_cycle;
  stats_.busy_cycle_estimate += config_.t_bus;
  // Queueing delay ahead of this request, expressed in burst slots: how many
  // bursts deep the bank + bus backlog effectively was on arrival.
  queue_depth_.record(static_cast<double>(burst_start - arrival_cycle) /
                      static_cast<double>(config_.t_bus));
  return completion;
}

void DramModel::flush_telemetry() const {
  C2B_HISTOGRAM_MERGE("sim.dram.queue_depth", queue_depth_);
}

}  // namespace c2b::sim
