// Fixture: the codec's own home may use the raw token primitives.
#include <sstream>
#include <string>

Result<int64_t> ParseInt64(const std::string& token) {
  std::istringstream in(token);
  int64_t value = 0;
  in >> value;
  return value;
}
