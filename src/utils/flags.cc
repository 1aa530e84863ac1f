#include "utils/flags.h"

#include <charconv>
#include <system_error>

namespace pmmrec {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // Bare boolean flag.
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

namespace {

// Parses the whole of `text` as a T; false on any leftover character.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void FlagParser::RecordInvalid(const std::string& name,
                               const std::string& value,
                               const char* what) const {
  invalid_.push_back("flag --" + name + " has value '" + value + "', not " +
                     what);
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  int64_t value = 0;
  if (ParseWhole(it->second, &value)) return value;
  RecordInvalid(name, it->second, "an integer");
  return default_value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double value = 0;
  if (ParseWhole(it->second, &value)) return value;
  RecordInvalid(name, it->second, "a number");
  return default_value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  RecordInvalid(name, v, "a boolean (true, false, 1, 0, yes or no)");
  return default_value;
}

std::vector<std::string> FlagParser::UnqueriedFlags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (!queried_.count(name)) unknown.push_back(name);
  }
  return unknown;
}

}  // namespace pmmrec
