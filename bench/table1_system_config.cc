/**
 * @file
 * Table 1: the evaluated system configuration, plus the Section 3.3
 * area feasibility table for every piece of PIM logic.
 */

#include "bench_common.h"

#include "core/area_model.h"
#include "sim/system_config.h"

namespace {

using namespace pim;

void
PrintTable1(bench::BenchOutput &out)
{
    out.Section("config", [&] {
    const sim::SystemConfig cfg = sim::DefaultSystemConfig();

    Table table("Table 1 — evaluated system configuration");
    table.SetHeader({"component", "configuration"});
    table.AddRow({"SoC",
                  std::to_string(cfg.soc.cores) + " OoO cores, " +
                      std::to_string(cfg.soc.issue_width) +
                      "-wide issue, " + Table::Num(cfg.soc.freq_ghz, 1) +
                      " GHz"});
    table.AddRow({"L1 I/D caches", "64 kB private, 4-way assoc."});
    table.AddRow({"L2 cache", "2 MB shared, 8-way assoc."});
    table.AddRow({"Coherence", cfg.soc.coherence});
    table.AddRow({"PIM core",
                  "1 per vault, 1-wide issue, " +
                      std::to_string(cfg.pim_core.simd_width) +
                      "-wide SIMD, 32 kB L1"});
    table.AddRow({"3D-stacked memory",
                  "2 GB cube, " + std::to_string(cfg.stacked.vaults) +
                      " vaults, 256 GB/s internal, 32 GB/s off-chip"});
    table.AddRow({"Baseline memory",
                  cfg.baseline.type + ", 2 GB, " +
                      cfg.baseline.scheduler + " scheduler"});
    out.Emit(table);

    Table area("Section 3.3 — PIM logic area feasibility (22 nm)");
    area.SetHeader(
        {"PIM logic", "area (mm^2)", "share of vault budget", "fits?"});
    for (const auto &logic : core::AllPimLogicAreas()) {
        area.AddRow({
            logic.name,
            Table::Num(logic.area_mm2, 2),
            Table::Pct(core::FractionOfVaultBudget(logic)),
            core::FitsVaultBudget(logic) ? "yes" : "NO",
        });
    }
    out.Emit(area);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintTable1)
