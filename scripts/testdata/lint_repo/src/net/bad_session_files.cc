// Fixture: the wire layer writing and deleting a session's files
// itself, beside the service's store.
#include <unistd.h>

#include <string>

#include "src/common/file_io.h"

void SaveThenForget(const std::string& dir, const std::string& text) {
  llamatune::AtomicWriteFile(dir + "/6a6f62.autosave", text).ok();
  ::unlink((dir + "/6a6f62.wal").c_str());
}
