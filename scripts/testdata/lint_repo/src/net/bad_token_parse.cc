// Fixture: a hand-rolled token loop in a wire path.
#include <sstream>
#include <string>

#include "src/common/serde.h"

int64_t ReadCount(const std::string& payload) {
  std::istringstream in(payload);
  std::string tag, token;
  in >> tag >> token;
  return ParseInt64(token).ValueOrDie();
}
