#pragma once

#include <string>
#include <vector>

#include "src/common/status.h"

namespace llamatune {
namespace service {

/// \brief Per-session write-ahead trial log.
///
/// TuningService appends one fsync'd record per committed
/// state-changing operation (ask, tell, expire, step), so a crash
/// between periodic autosaves loses at most the request that was in
/// flight: recovery loads the last autosave checkpoint, then replays
/// the WAL tail idempotently on top (see docs/resilience.md for the
/// record grammar and the recovery order proof sketch).
///
/// One record is one '\n'-terminated line. Each append is followed by
/// fsync before the call returns — a record the caller saw
/// acknowledged is durable. Not thread-safe: the owner serializes
/// calls (the service holds the session lock).
/// ReadRecords tolerates a torn tail: a final line without its
/// newline (the append that was racing the crash) is ignored. Recovery
/// cuts the log before its first append at the end of the last record
/// replay consumed, which drops a torn tail and any records past a
/// replay gap.
///
/// The log is truncated by the autosave snapshot once a checkpoint
/// covering every record has been persisted *and* the session has no
/// pending trials (a pending trial's ask record must survive until
/// its round commits into a checkpoint, or a tell recorded after the
/// checkpoint would reference an id recovery cannot rebuild).
class TrialWal {
 public:
  TrialWal() = default;
  ~TrialWal();
  TrialWal(const TrialWal&) = delete;
  TrialWal& operator=(const TrialWal&) = delete;

  /// Opens (creating if needed) the log at `path` for appending.
  Status Open(const std::string& path);

  /// Appends one record (a single line WITHOUT the trailing newline)
  /// and fsyncs. Fault site "wal.append.torn" simulates the
  /// crash-interrupted write: only a prefix of the record reaches the
  /// file and no newline terminates it.
  Status Append(const std::string& record);

  /// Truncates the log to `size` bytes and fsyncs: to empty after an
  /// autosave made it redundant, or to the end of the last record
  /// replay consumed when recovery could not replay the whole file.
  Status Truncate(size_t size = 0);

  void Close();
  bool is_open() const { return fd_ >= 0; }

  /// Reads every complete record from the log at `path`. A torn tail
  /// (final line with no newline) is dropped; when there is one and
  /// `torn` is given, it is set to true. A missing file yields an
  /// empty list.
  static Result<std::vector<std::string>> ReadRecords(
      const std::string& path, bool* torn = nullptr);

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace service
}  // namespace llamatune
