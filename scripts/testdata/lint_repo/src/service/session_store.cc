// Fixture: the service's store owns a session's files, so it may
// write, list and delete them.
#include <dirent.h>
#include <unistd.h>

#include <string>

#include "src/common/file_io.h"

void Forget(const std::string& dir) {
  ::unlink((dir + "/6a6f62.autosave").c_str());
  DIR* listing = ::opendir(dir.c_str());
  if (listing != nullptr) ::closedir(listing);
}
