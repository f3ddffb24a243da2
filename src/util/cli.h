// Small typed command-line flag registry shared by the CLI front ends
// (psv_verify, psv_serve).
//
// Each tool registers its flags once — name, typed destination, value
// placeholder, help text, optional environment-variable fallback — and gets
// uniform behavior for parsing, validation, `--help` generation, and
// diagnostics. This replaces the per-tool hand-rolled argv loops (which
// silently terminated on `--sim notanumber` via an uncaught std::stoi
// exception and drifted between tools).
//
// Semantics:
//   * flags are `--name VALUE` (value flags) or `--name` (switches);
//   * anything not starting with '-' is a positional, returned in order;
//   * unknown flags, missing values, and unparsable values throw psv::Error
//     with ErrorCode::kParse — tools catch, print help, and exit 2;
//   * environment fallbacks apply only when the flag is absent from argv;
//   * every parser answers `--help` by printing the generated text to
//     stdout; callers check help_requested() and exit 0.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace psv::cli {

/// Typed flag registry and argv parser for one tool.
class Parser {
 public:
  /// `program` is the tool name; `summary` the usage line(s) printed at the
  /// top of --help (may be multi-line; printed verbatim).
  Parser(std::string program, std::string summary);

  // Value flags. `value_name` is the placeholder in --help ("DIR", "N");
  // the target keeps its prior value (the default) when the flag is absent.
  void flag(const std::string& name, std::string* target, const std::string& value_name,
            const std::string& help);
  void flag(const std::string& name, int* target, const std::string& value_name,
            const std::string& help);
  void flag(const std::string& name, std::int64_t* target, const std::string& value_name,
            const std::string& help);
  void flag(const std::string& name, std::uint64_t* target, const std::string& value_name,
            const std::string& help);
  void flag(const std::string& name, unsigned* target, const std::string& value_name,
            const std::string& help);
  /// Boolean switch: present sets *target = true; takes no value.
  void flag(const std::string& name, bool* target, const std::string& help);

  /// Fully custom value flag: `apply` receives the raw value text and throws
  /// psv::Error to reject it (used for range-checked flags such as --top-k).
  void flag_custom(const std::string& name, const std::string& value_name,
                   const std::string& help, std::function<void(const std::string&)> apply);

  /// Use `env_var`'s value for `name` (a previously registered value flag)
  /// when the flag is absent from argv. Mentioned in the generated help.
  void env_fallback(const std::string& name, const std::string& env_var);

  /// Extra paragraph appended to the generated help (exit-code contract,
  /// examples). Printed verbatim after the flag table.
  void epilog(std::string text);

  /// Parse argv (excluding argv[0]); returns positionals in order. Throws
  /// psv::Error (kParse) on unknown flags, missing or malformed values.
  /// `--help` sets help_requested() instead of parsing further.
  std::vector<std::string> parse(int argc, char** argv);

  /// True when argv contained --help (or -h); the caller should print
  /// help() to stdout and exit 0.
  bool help_requested() const { return help_requested_; }

  /// The generated help text: usage summary, aligned flag table (with env
  /// fallbacks noted), epilog.
  std::string help() const;

 private:
  struct Flag {
    std::string name;        ///< including leading dashes, e.g. "--jobs"
    std::string value_name;  ///< empty for switches
    std::string help;
    std::string env_var;  ///< empty unless env_fallback() registered one
    bool takes_value = false;
    bool seen = false;
    std::function<void(const std::string&)> apply;  ///< value text -> target
  };

  Flag* find(const std::string& name);
  void add(Flag flag);

  std::string program_;
  std::string summary_;
  std::string epilog_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace psv::cli
