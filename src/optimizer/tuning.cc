#include "optimizer/tuning.h"

namespace rpe {

const char* TuningLevelName(TuningLevel level) {
  switch (level) {
    case TuningLevel::kUntuned: return "untuned";
    case TuningLevel::kPartiallyTuned: return "partially tuned";
    case TuningLevel::kFullyTuned: return "fully tuned";
  }
  return "unknown";
}

Status ApplyPhysicalDesign(Catalog* catalog, const PhysicalDesign& design) {
  catalog->DropAllIndexes();
  return catalog->CreateIndexes(design.indexes);
}

}  // namespace rpe
