#ifndef PMMREC_UTILS_FLAGS_H_
#define PMMREC_UTILS_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pmmrec {

// Minimal command-line parser for the tools and examples.
//
// Accepts "--name=value" and "--name value" forms plus bare positional
// arguments. Boolean flags may omit the value ("--verbose").
//
// A value that does not parse as the type asked for is recorded and the
// default returned: a boolean is one of true, false, 1, 0, yes or no; an
// int or a double must parse as a whole ("abc" and "3x" are not ints).
// Tools reject both kinds of mistake before doing any work:
//
//   FlagParser flags(argc, argv);
//   int64_t epochs = flags.GetInt("epochs", 10);
//   std::string out = flags.GetString("output", "model.ckpt");
//   if (!flags.UnqueriedFlags().empty() || !flags.InvalidFlags().empty()) {
//     ...
//   }
class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value = "") const;
  int64_t GetInt(const std::string& name, int64_t default_value = 0) const;
  double GetDouble(const std::string& name, double default_value = 0) const;
  bool GetBool(const std::string& name, bool default_value = false) const;

  // Arguments that are not "--flag"s, in order (e.g. a subcommand).
  const std::vector<std::string>& positional() const { return positional_; }

  // Flag names that were provided but never queried; used by tools to
  // reject typos. Call after all Get*() calls.
  std::vector<std::string> UnqueriedFlags() const;

  // One message per queried flag whose value did not parse, naming the
  // flag ("flag --nprobe has value 'abc', not an integer"), in query
  // order. Call after all Get*() calls.
  const std::vector<std::string>& InvalidFlags() const { return invalid_; }

 private:
  // Records that --name's value is not a `what`.
  void RecordInvalid(const std::string& name, const std::string& value,
                     const char* what) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  mutable std::vector<std::string> invalid_;
  std::vector<std::string> positional_;
};

}  // namespace pmmrec

#endif  // PMMREC_UTILS_FLAGS_H_
