#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace llamatune {
namespace service {

/// What a session's autosave file holds.
struct SavedSession {
  /// The caller's header line, opaque to the service.
  std::string header;
  std::string checkpoint;
};

/// \brief The one owner of the files of a TuningService's sessions.
///
/// Session `name` keeps two files in the store's directory, named by
/// hex(name) so that no name can escape the directory or collide:
/// `<hex>.autosave` (header line, '\n', checkpoint), replaced
/// atomically and durably, and `<hex>.wal`, the session's TrialWal.
/// An empty directory disables the store. The service serializes the
/// calls for one name under that session's lock.
class SessionStore {
 public:
  /// Creates `dir` when it is missing.
  explicit SessionStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  std::string WalPath(const std::string& name) const;

  /// Replaces the autosave through AtomicWriteFile, whose directory
  /// fsync also makes the name of a WAL created before it durable.
  /// Fault site "autosave.torn": the write dies half way and fails,
  /// and the previous file stays.
  Status Write(const std::string& name, const std::string& header,
               const std::string& checkpoint);
  /// NotFound when no autosave exists; FailedPrecondition when the
  /// store is disabled.
  Result<SavedSession> Load(const std::string& name) const;
  /// Names with an autosave, sorted; fails when the directory cannot
  /// be read.
  Result<std::vector<std::string>> List() const;
  /// Removes both files (a no-op when the store is disabled).
  void Remove(const std::string& name) const;

  /// Autosave files written, counted the moment each becomes visible.
  int64_t autosaves_written() const { return autosaves_written_.load(); }

 private:
  std::string AutosavePath(const std::string& name) const;

  const std::string dir_;
  std::atomic<int64_t> autosaves_written_{0};
};

}  // namespace service
}  // namespace llamatune
