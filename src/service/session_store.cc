#include "src/service/session_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/common/file_io.h"
#include "src/common/serde.h"

namespace llamatune {
namespace service {

constexpr std::string_view kAutosaveSuffix = ".autosave";

SessionStore::SessionStore(std::string dir) : dir_(std::move(dir)) {
  if (enabled()) ::mkdir(dir_.c_str(), 0755);
}

std::string SessionStore::AutosavePath(const std::string& name) const {
  return dir_ + "/" + EncodeBytes(name) + std::string(kAutosaveSuffix);
}

std::string SessionStore::WalPath(const std::string& name) const {
  return dir_ + "/" + EncodeBytes(name) + ".wal";
}

Status SessionStore::Write(const std::string& name, const std::string& header,
                           const std::string& checkpoint) {
  return AtomicWriteFile(AutosavePath(name), header + '\n' + checkpoint,
                         "autosave.torn",
                         [this] { autosaves_written_.fetch_add(1); });
}

Result<SavedSession> SessionStore::Load(const std::string& name) const {
  if (!enabled()) return Status::FailedPrecondition("no session store");
  Result<std::string> text = ReadFile(AutosavePath(name));
  if (!text.ok()) {
    return Status::NotFound("no autosave for session '" + name + "'");
  }
  size_t newline = text->find('\n');
  if (newline == std::string::npos) {
    return Status::Internal("corrupt autosave for session '" + name + "'");
  }
  return SavedSession{text->substr(0, newline), text->substr(newline + 1)};
}

Result<std::vector<std::string>> SessionStore::List() const {
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) {
    return Status::InvalidArgument("session store: '" + dir_ +
                                   "' is not a usable directory");
  }
  std::vector<std::string> names;
  for (dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    std::string_view file = entry->d_name;
    if (file.size() <= kAutosaveSuffix.size() ||
        file.substr(file.size() - kAutosaveSuffix.size()) != kAutosaveSuffix) {
      continue;
    }
    TokenReader in(file.substr(0, file.size() - kAutosaveSuffix.size()));
    std::string name;
    in.Hex(name);
    if (in.ok()) names.push_back(std::move(name));
  }
  ::closedir(dir);
  // Directory order is filesystem-dependent.
  std::sort(names.begin(), names.end());
  return names;
}

void SessionStore::Remove(const std::string& name) const {
  if (!enabled()) return;
  ::unlink(AutosavePath(name).c_str());
  ::unlink(WalPath(name).c_str());
}

}  // namespace service
}  // namespace llamatune
