#include "src/service/trial_wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/fault_injection.h"
#include "src/common/file_io.h"

namespace llamatune {
namespace service {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal("TrialWal: " + what + " failed for '" + path +
                          "': " + std::strerror(errno));
}

}  // namespace

TrialWal::~TrialWal() { Close(); }

Status TrialWal::Open(const std::string& path) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return Errno("open", path);
  path_ = path;
  return Status::OK();
}

Status TrialWal::Append(const std::string& record) {
  if (fd_ < 0) return Status::FailedPrecondition("TrialWal: not open");
  std::string line = record;
  line.push_back('\n');
  if (FaultInjection::ShouldFail("wal.append.torn")) {
    // The crash-interrupted append: a prefix lands, the newline does
    // not. Recovery must drop this record (and everything after it).
    size_t half = line.size() / 2;
    WriteFully(fd_, line.data(), half);
    ::fsync(fd_);
    return Status::OK();
  }
  if (!WriteFully(fd_, line.data(), line.size())) {
    return Errno("write", path_);
  }
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

Status TrialWal::Truncate(size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("TrialWal: not open");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate", path_);
  }
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

void TrialWal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::vector<std::string>> TrialWal::ReadRecords(
    const std::string& path, bool* torn) {
  std::vector<std::string> records;
  Result<std::string> read = ReadFile(path);
  if (!read.ok()) return records;  // no log: nothing to replay
  const std::string& contents = *read;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) {  // torn tail: drop
      if (torn != nullptr) *torn = true;
      break;
    }
    records.push_back(contents.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return records;
}

}  // namespace service
}  // namespace llamatune
