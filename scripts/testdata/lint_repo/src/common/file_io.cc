// Fixture: the one durable-write module may read, write and delete
// files.
#include <unistd.h>

#include <string>

bool AtomicWriteFile(const std::string& path, const std::string& content);

bool ReplaceFile(const std::string& path) {
  ::unlink((path + ".tmp").c_str());
  return AtomicWriteFile(path, "");
}
