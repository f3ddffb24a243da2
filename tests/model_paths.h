// Shared test helpers for reading the shipped example model files. CMake
// defines PSV_MODELS_DIR as the source tree's examples/models/, so suites
// find the models from any working directory; a missing file throws, so a
// suite that depends on one fails instead of skipping.
#pragma once

#include <string>

#include "core/scheme.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "ta/model.h"
#include "util/io.h"

namespace psv::testing {

/// Text of examples/models/<name>.
inline std::string read_model(const std::string& name) {
  return util::read_file(PSV_MODELS_DIR + name);
}

/// examples/models/<name> parsed as a `.psv` model.
inline ta::Network parse_model_file(const std::string& name) {
  return lang::parse_model(read_model(name));
}

/// examples/models/<name> parsed as a `.pss` scheme.
inline core::ImplementationScheme parse_scheme_file(const std::string& name) {
  return lang::parse_scheme(read_model(name));
}

/// `text` with every occurrence of `from` replaced by `to`: one-off
/// variants of a shipped model are edits of its text.
inline std::string replace_all(std::string text, const std::string& from, const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
  return text;
}

}  // namespace psv::testing
