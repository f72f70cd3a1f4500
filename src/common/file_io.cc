#include "src/common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/fault_injection.h"

namespace llamatune {

namespace {

Status Failed(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

bool WriteFully(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("cannot open '" + path + "'");
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  return text;
}

Status AtomicWriteFile(const std::string& path, std::string_view content,
                       const char* torn_fault_site,
                       const std::function<void()>& on_renamed) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Failed("cannot open", tmp);
  const bool torn = torn_fault_site != nullptr &&
                    FaultInjection::ShouldFail(torn_fault_site);
  const size_t size = torn ? content.size() / 2 : content.size();
  bool ok = WriteFully(fd, content.data(), size) && !torn;
  // Without this fsync a power loss shortly after the rename can
  // commit the name change before the data blocks, replacing the
  // previous good file with a truncated one.
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok) {
    Status failed = torn ? Status::Internal("torn write to '" + tmp + "'")
                         : Failed("cannot write", tmp);
    ::unlink(tmp.c_str());
    return failed;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status failed = Failed("cannot rename to", path);
    ::unlink(tmp.c_str());
    return failed;
  }
  if (on_renamed) on_renamed();
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return Failed("cannot open directory", dir);
  bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) return Failed("cannot fsync directory", dir);
  return Status::OK();
}

}  // namespace llamatune
