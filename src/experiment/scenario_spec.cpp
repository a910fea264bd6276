#include "experiment/scenario_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace sdcgmres::experiment {

namespace {

[[noreturn]] void bad_value(std::string_view key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("ScenarioSpec: value '" + value + "' for key '" +
                              std::string(key) + "' is not " + expected);
}

} // namespace

ScenarioSpec ScenarioSpec::parse(std::string_view text) {
  ScenarioSpec spec;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i >= text.size()) break;
    std::size_t end = i;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    const std::string_view token = text.substr(i, end - i);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("ScenarioSpec: token '" +
                                  std::string(token) +
                                  "' is not of the form key=value");
    }
    spec.set(token.substr(0, eq), token.substr(eq + 1));
    i = end;
  }
  return spec;
}

ScenarioSpec ScenarioSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("scenario spec '" + path +
                             "': open for reading failed: " +
                             std::strerror(errno));
  }
  ScenarioSpec spec;
  // First-assignment line per key, for the duplicate-key diagnostic.
  std::map<std::string, std::size_t, std::less<>> first_line;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      if (i >= line.size()) break;
      std::size_t end = i;
      while (end < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[end]))) {
        ++end;
      }
      const std::string token = line.substr(i, end - i);
      i = end;
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error("scenario spec '" + path + "': token '" +
                                 token + "' at line " +
                                 std::to_string(line_no) +
                                 " is not of the form key=value");
      }
      const std::string key = token.substr(0, eq);
      const auto [it, inserted] = first_line.emplace(key, line_no);
      if (!inserted) {
        // Last-wins merging is for command lines, where later tokens
        // deliberately override; in a queued job file it would silently
        // pick one of two conflicting lines.
        throw std::runtime_error(
            "scenario spec '" + path + "': duplicate key '" + key +
            "' at line " + std::to_string(line_no) + " (first assigned at "
            "line " + std::to_string(it->second) +
            "); a job file must assign each key exactly once");
      }
      spec.set(key, token.substr(eq + 1));
    }
  }
  return spec;
}

void ScenarioSpec::set(std::string_view key, std::string_view value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  entries_.emplace_back(std::string(key), std::string(value));
}

void ScenarioSpec::merge(const ScenarioSpec& other) {
  for (const auto& [k, v] : other.entries_) set(k, v);
}

const std::string* ScenarioSpec::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ScenarioSpec::has(std::string_view key) const noexcept {
  return find(key) != nullptr;
}

std::string ScenarioSpec::get(std::string_view key,
                              std::string_view dflt) const {
  const std::string* v = find(key);
  return v != nullptr ? *v : std::string(dflt);
}

std::size_t ScenarioSpec::get_size(std::string_view key,
                                   std::size_t dflt) const {
  const std::string* v = find(key);
  if (v == nullptr) return dflt;
  // Digits only: std::stoull would silently wrap "-5" to a huge value.
  if (v->empty() || v->find_first_not_of("0123456789") != std::string::npos) {
    bad_value(key, *v, "a non-negative integer");
  }
  try {
    return static_cast<std::size_t>(std::stoull(*v, nullptr, 10));
  } catch (const std::out_of_range&) {
    bad_value(key, *v, "a representable integer");
  }
}

double ScenarioSpec::get_double(std::string_view key, double dflt) const {
  const std::string* v = find(key);
  if (v == nullptr) return dflt;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    if (pos != v->size()) bad_value(key, *v, "a number");
    // nan and inf parse, but no key accepts them: nan passes every range
    // check (its comparisons are false) and inf overflows the duration
    // casts of the deadlines.
    if (!std::isfinite(parsed)) bad_value(key, *v, "a finite number");
    return parsed;
  } catch (const std::invalid_argument&) {
    bad_value(key, *v, "a number");
  } catch (const std::out_of_range&) {
    bad_value(key, *v, "a representable number");
  }
}

bool ScenarioSpec::get_bool(std::string_view key, bool dflt) const {
  const std::string* v = find(key);
  if (v == nullptr) return dflt;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  bad_value(key, *v, "a boolean (1/0/true/false/yes/no/on/off)");
}

std::vector<std::string> ScenarioSpec::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : entries_) out.push_back(k);
  return out;
}

std::string ScenarioSpec::to_string() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [k, v] : entries_) {
    if (!first) out << ' ';
    out << k << '=' << v;
    first = false;
  }
  return out.str();
}

void ScenarioSpec::require_keys_in(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [k, v] : entries_) {
    if (std::find(known.begin(), known.end(), k) == known.end()) {
      std::ostringstream msg;
      msg << "ScenarioSpec: unknown key '" << k << "'; known keys:";
      for (const std::string_view name : known) msg << ' ' << name;
      throw std::invalid_argument(msg.str());
    }
  }
}

} // namespace sdcgmres::experiment
