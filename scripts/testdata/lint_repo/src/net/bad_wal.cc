// Fixture: the wire layer keeping its own trial WAL beside the service.
#include <string>

#include "src/service/trial_wal.h"

void LogAsk(llamatune::service::TrialWal& wal, int64_t id) {
  wal.Append("ask1 " + std::to_string(id)).ok();
}
