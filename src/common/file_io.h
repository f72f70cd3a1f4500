#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace llamatune {

/// Writes all of `data` to `fd`, retrying short writes and EINTR.
bool WriteFully(int fd, const char* data, size_t size);

/// Reads the whole file; NotFound when it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

/// \brief Replaces the file at `path` with `content`, durably and
/// atomically: writes `path + ".tmp"`, fsyncs it, renames it over
/// `path`, then fsyncs the parent directory so the rename itself
/// survives power loss, not only a process crash.
///
/// Readers see either the previous file or the complete new one, never
/// a torn mix. On any failure the previous file is left byte-identical
/// and the tmp file is removed.
///
/// `torn_fault_site`, when set, names a FaultInjection site that
/// simulates a crash mid-write: only half of `content` reaches the tmp
/// file, which is then discarded, and the call fails. `on_renamed`,
/// when set, runs the moment the new file becomes visible at `path`
/// (before the directory fsync), so a counter of files written never
/// lags behind what a reader of the directory can see.
Status AtomicWriteFile(const std::string& path, std::string_view content,
                       const char* torn_fault_site = nullptr,
                       const std::function<void()>& on_renamed = nullptr);

}  // namespace llamatune
