// Physical-design configurations: named sets of secondary indexes applied
// to a catalog. Stands in for the paper's three Database Tuning Advisor
// configurations ("untuned" = integrity-constraint indexes only, "partially
// tuned" = half the recommended index budget, "fully tuned" = all
// recommendations) whose operator-mix impact Table 1 reports.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"

namespace rpe {

/// \brief Tuning levels used across the experiments.
enum class TuningLevel {
  kUntuned,
  kPartiallyTuned,
  kFullyTuned,
};

const char* TuningLevelName(TuningLevel level);

/// \brief A named physical design: the index set for one tuning level.
struct PhysicalDesign {
  std::string name;
  std::vector<IndexSpec> indexes;
};

/// Drop all current indexes and create the design's index set.
Status ApplyPhysicalDesign(Catalog* catalog, const PhysicalDesign& design);

}  // namespace rpe
