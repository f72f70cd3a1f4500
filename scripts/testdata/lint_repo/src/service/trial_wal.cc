// Fixture: the service owns the WAL, so naming TrialWal here is fine.
#include "src/service/trial_wal.h"

llamatune::service::TrialWal* NewWal() { return new llamatune::service::TrialWal(); }
