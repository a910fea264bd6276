#pragma once
/// \file bench_common.hpp
/// \brief Shared setup for the experiment harnesses.
///
/// Every bench binary honors the environment variable SDCGMRES_FULL=1 to
/// run at the paper's scale (Poisson 100x100 grid; circuit 25,187 nodes;
/// every injection site).  The default configuration preserves the sweep
/// structure at laptop-friendly sizes so `for b in build/bench/*; do $b;
/// done` finishes in minutes; the header of each run states which mode is
/// active.

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>

#include "experiment/scenario_spec.hpp"
#include "gen/circuit.hpp"
#include "gen/poisson.hpp"
#include "la/blas1.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::benchcfg {

/// True when SDCGMRES_FULL=1 requests paper-scale runs.
inline bool full_scale() {
  const char* env = std::getenv("SDCGMRES_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// The paper's first matrix: gallery('poisson', 100) at full scale.
inline sparse::CsrMatrix poisson_matrix() {
  return gen::poisson2d(full_scale() ? 100 : 40);
}

/// The paper's second matrix (synthetic substitute, see DESIGN.md §4).
inline sparse::CsrMatrix circuit_matrix() {
  gen::CircuitOptions opts;
  opts.nodes = full_scale() ? 25187 : 2000;
  return gen::circuit_like(opts);
}

/// Right-hand side for the Poisson experiments (b = 1, as for a constant
/// source term).
inline la::Vector poisson_rhs(const sparse::CsrMatrix& A) {
  return la::ones(A.rows());
}

/// Right-hand side for the circuit experiments: b = A*1.  With
/// kappa ~ 1e13 an arbitrary rhs would demand solution components of size
/// ~1e13, beyond what double-precision residuals can certify to 1e-8; a
/// consistent rhs keeps the solve in the regime the paper ran in (see
/// EXPERIMENTS.md).
inline la::Vector circuit_rhs(const sparse::CsrMatrix& A) {
  return A.apply(la::ones(A.rows()));
}

/// Injection-site stride for the sweeps (1 = every site, the paper's
/// protocol; the default samples to bound runtime on the bigger sweeps).
/// SDCGMRES_STRIDE overrides both modes, e.g. SDCGMRES_FULL=1
/// SDCGMRES_STRIDE=8 runs paper-scale matrices with sampled sites.
inline std::size_t sweep_stride(std::size_t dflt) {
  if (const char* env = std::getenv("SDCGMRES_STRIDE")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return full_scale() ? 1 : dflt;
}

/// Directory for CSV dumps of every sweep (empty = disabled).  Set
/// SDCGMRES_CSV_DIR=path to save `<bench>_<series>.csv` files alongside
/// the printed output, for external plotting of the figures.
inline std::string csv_dir() {
  const char* env = std::getenv("SDCGMRES_CSV_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

/// Parsed bench/example command line, built on the same
/// experiment::ScenarioSpec parser as the `sdc_run` example so every
/// harness shares one flag vocabulary: `--threads N`, `--json F` (or the
/// legacy `--sweep-json F`), `--n N`, any bench-specific flags the caller
/// declares, each also accepted as a `key=value` token (`batch=4`).
struct CliArgs {
  experiment::ScenarioSpec spec; ///< every recognized flag, as key=value
  std::size_t threads = 1; ///< worker threads for sweeps / parallel loops
                           ///< (0 = all hardware threads)
  std::string json;        ///< machine-readable output path ("" = off)
  std::size_t n = 0;       ///< problem-size override (0 = bench default)
};

/// Parse \p argv.  \p value_flags declares bench-specific `--flag value`
/// pairs and \p bool_flags valueless `--flag` switches, both stored in
/// the spec under the flag name (booleans as "1"); `--threads/--json/
/// --sweep-json/--n` are always recognized.  An unrecognized flag, key or
/// bare token, or a malformed value, exits(1) with a message naming it
/// (bench binaries have no caller to rethrow to).
inline CliArgs parse_cli(int argc, char** argv,
                         std::initializer_list<std::string_view> value_flags = {},
                         std::initializer_list<std::string_view> bool_flags = {}) {
  CliArgs args;
  const auto known = [&](std::string_view name) {
    static constexpr std::string_view shared[] = {"threads", "json",
                                                  "sweep-json", "n"};
    return std::find(std::begin(shared), std::end(shared), name) !=
               std::end(shared) ||
           std::find(value_flags.begin(), value_flags.end(), name) !=
               value_flags.end();
  };
  const auto is_bool = [&](std::string_view name) {
    return std::find(bool_flags.begin(), bool_flags.end(), name) !=
           bool_flags.end();
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view tok = argv[i];
      if (tok.rfind("--", 0) == 0) {
        const std::string_view name = tok.substr(2);
        if (is_bool(name)) {
          args.spec.set(name, "1");
        } else if (known(name) && i + 1 < argc) {
          args.spec.set(name, argv[++i]);
        } else if (known(name)) {
          std::cerr << tok << " requires a value\n";
          std::exit(1);
        } else {
          std::cerr << "unrecognized flag " << tok << "\n";
          std::exit(1);
        }
      } else if (tok.find('=') != std::string_view::npos) {
        args.spec.merge(experiment::ScenarioSpec::parse(tok));
      } else {
        std::cerr << "unrecognized argument " << tok << "\n";
        std::exit(1);
      }
    }
    for (const std::string& key : args.spec.keys()) {
      if (!known(key) && !is_bool(key)) {
        std::cerr << "unrecognized key " << key << "\n";
        std::exit(1);
      }
    }
    args.threads = args.spec.get_size("threads", 1);
    args.json = args.spec.get("json", args.spec.get("sweep-json"));
    args.n = args.spec.get_size("n", 0);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    std::exit(1);
  }
  return args;
}

/// Print the standard mode banner.
inline void print_mode_banner(const char* bench_name) {
  std::cout << "=== " << bench_name << " ===\n"
            << "mode: "
            << (full_scale() ? "FULL (paper scale; SDCGMRES_FULL=1)"
                             : "default (reduced scale; set SDCGMRES_FULL=1 "
                               "for paper scale)")
            << "\n\n";
}

} // namespace sdcgmres::benchcfg
