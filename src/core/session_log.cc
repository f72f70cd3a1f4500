#include "src/core/session_log.h"

#include <sstream>

#include "src/common/file_io.h"

namespace llamatune {

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  // lint:allow(raw-token-parse) — CSV export, not a token stream
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.push_back("");
  return fields;
}

}  // namespace

std::string SerializeKnowledgeBase(const ConfigSpace& space,
                                   const KnowledgeBase& kb) {
  std::ostringstream out;
  out.precision(17);
  out << "iteration,objective,measured,crashed";
  for (int i = 0; i < space.num_knobs(); ++i) {
    out << "," << space.knob(i).name;
  }
  out << "\n";
  for (int r = 0; r < kb.size(); ++r) {
    const IterationRecord& record = kb.record(r);
    out << record.iteration << "," << record.objective << ","
        << record.measured << "," << (record.crashed ? 1 : 0);
    for (int i = 0; i < record.config.size(); ++i) {
      out << "," << record.config[i];
    }
    out << "\n";
  }
  return out.str();
}

Result<KnowledgeBase> ParseKnowledgeBase(const ConfigSpace& space,
                                         const std::string& text) {
  // lint:allow(raw-token-parse) — CSV export, not a token stream
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty knowledge base file");
  }
  std::vector<std::string> header = SplitCsvLine(line);
  int expected = 4 + space.num_knobs();
  if (static_cast<int>(header.size()) != expected) {
    return Status::InvalidArgument("header has " +
                                   std::to_string(header.size()) +
                                   " fields, expected " +
                                   std::to_string(expected));
  }
  for (int i = 0; i < space.num_knobs(); ++i) {
    if (header[4 + i] != space.knob(i).name) {
      return Status::FailedPrecondition(
          "knob catalog mismatch at column '" + header[4 + i] +
          "' (expected '" + space.knob(i).name + "')");
    }
  }

  KnowledgeBase kb;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (static_cast<int>(fields.size()) != expected) {
      return Status::InvalidArgument("row " + std::to_string(line_number) +
                                     " has wrong field count");
    }
    IterationRecord record;
    try {
      record.iteration = std::stoi(fields[0]);
      record.objective = std::stod(fields[1]);
      record.measured = std::stod(fields[2]);
      record.crashed = fields[3] == "1";
      std::vector<double> values(space.num_knobs());
      for (int i = 0; i < space.num_knobs(); ++i) {
        values[i] = std::stod(fields[4 + i]);
      }
      record.config = Configuration(std::move(values));
    } catch (const std::exception&) {
      return Status::InvalidArgument("row " + std::to_string(line_number) +
                                     " has a malformed number");
    }
    Status valid = space.ValidateConfiguration(record.config);
    if (!valid.ok()) return valid;
    kb.Add(std::move(record));
  }
  return kb;
}

Status SaveKnowledgeBase(const ConfigSpace& space, const KnowledgeBase& kb,
                         const std::string& path) {
  return AtomicWriteFile(path, SerializeKnowledgeBase(space, kb));
}

Result<KnowledgeBase> LoadKnowledgeBase(const ConfigSpace& space,
                                        const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseKnowledgeBase(space, *text);
}

Status SaveCheckpointFile(const std::string& checkpoint,
                          const std::string& path) {
  return AtomicWriteFile(path, checkpoint);
}

Result<std::string> LoadCheckpointFile(const std::string& path) {
  return ReadFile(path);
}

}  // namespace llamatune
