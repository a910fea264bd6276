#include "solver/registry.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "gen/circuit.hpp"
#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/ilu0.hpp"
#include "krylov/operator.hpp"
#include "sparse/analysis.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/norms.hpp"

namespace sdcgmres::solver {

namespace {

using experiment::ScenarioSpec;

/// Parse an inline registry argument as a number, with the registry key
/// named in the error.
double arg_double(const std::string& arg, const char* what, double dflt) {
  if (arg.empty()) return dflt;
  try {
    std::size_t pos = 0;
    const double v = std::stod(arg, &pos);
    if (pos != arg.size()) throw std::invalid_argument(arg);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("registry: argument '") + arg +
                                "' of '" + what + "' is not a number");
  }
}

std::size_t arg_size(const std::string& arg, const char* what,
                     std::size_t dflt) {
  const double v = arg_double(arg, what, static_cast<double>(dflt));
  if (v < 0.0 || v != std::floor(v)) {
    throw std::invalid_argument(std::string("registry: argument '") + arg +
                                "' of '" + what +
                                "' is not a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

/// Reject a stray inline argument on an entry that takes none:
/// `solver=gmres:50` or `precond=jacobi:3` silently building an
/// unconfigured object would misattribute experiment results.
void no_arg(const std::string& arg, const char* what) {
  if (!arg.empty()) {
    throw std::invalid_argument(std::string("registry: '") + what +
                                "' takes no inline ':" + arg +
                                "' argument");
  }
}

/// Inline arg wins over the spec key `n`, which wins over the default --
/// so `matrix=poisson:100` and `matrix=poisson n=100` are equivalent.
std::size_t size_param(const std::string& arg, const ScenarioSpec& spec,
                       const char* what, const char* key, std::size_t dflt) {
  return arg.empty() ? spec.get_size(key, dflt) : arg_size(arg, what, dflt);
}

/// Owns the CsrOperator the Neumann polynomial applies; the registry
/// returns preconditioners keyed to a caller-owned CSR matrix, so the
/// operator wrapper must travel with the preconditioner.
class OwningNeumannPreconditioner final : public krylov::Preconditioner {
public:
  OwningNeumannPreconditioner(const sparse::CsrMatrix& A, std::size_t degree,
                              double omega)
      : op_(A), inner_(op_, degree, omega) {}

  using krylov::Preconditioner::apply;
  void apply(std::span<const double> r, std::span<double> z) const override {
    inner_.apply(r, z);
  }

private:
  krylov::CsrOperator op_;
  krylov::NeumannPolynomialPreconditioner inner_;
};

} // namespace

// ---------------------------------------------------------------------------
// Matrix sources
// ---------------------------------------------------------------------------

Registry<sparse::CsrMatrix(const ScenarioSpec&)>& matrix_registry() {
  static auto* reg = [] {
    auto* r = new Registry<sparse::CsrMatrix(const ScenarioSpec&)>("matrix");
    r->add("poisson", [](const std::string& arg, const ScenarioSpec& spec) {
      return gen::poisson2d(size_param(arg, spec, "poisson", "n", 40));
    });
    r->add("poisson1d", [](const std::string& arg, const ScenarioSpec& spec) {
      return gen::poisson1d(size_param(arg, spec, "poisson1d", "n", 1000));
    });
    r->add("poisson3d", [](const std::string& arg, const ScenarioSpec& spec) {
      return gen::poisson3d(size_param(arg, spec, "poisson3d", "n", 12));
    });
    r->add("aniso", [](const std::string& arg, const ScenarioSpec& spec) {
      return gen::anisotropic2d(size_param(arg, spec, "aniso", "n", 40),
                                spec.get_double("eps_x", 1.0),
                                spec.get_double("eps_y", 1e-2));
    });
    r->add("convdiff", [](const std::string& arg, const ScenarioSpec& spec) {
      return gen::convection_diffusion2d(
          size_param(arg, spec, "convdiff", "n", 40),
          spec.get_double("beta_x", 20.0), spec.get_double("beta_y", 10.0));
    });
    r->add("circuit", [](const std::string& arg, const ScenarioSpec& spec) {
      gen::CircuitOptions opts;
      opts.nodes = arg.empty() ? spec.get_size("nodes", 2000)
                               : arg_size(arg, "circuit", 2000);
      if (spec.has("seed")) {
        opts.seed = static_cast<unsigned>(spec.get_size("seed", opts.seed));
      }
      return gen::circuit_like(opts);
    });
    r->add("random", [](const std::string& arg, const ScenarioSpec& spec) {
      return gen::random_diag_dominant(
          size_param(arg, spec, "random", "n", 500),
          static_cast<unsigned>(spec.get_size("seed", 42)));
    });
    r->add("spd", [](const std::string& arg, const ScenarioSpec& spec) {
      return gen::random_spd(size_param(arg, spec, "spd", "n", 500),
                             static_cast<unsigned>(spec.get_size("seed", 42)));
    });
    r->add("mtx", [](const std::string& arg, const ScenarioSpec& spec) {
      const std::string path = !arg.empty() ? arg : spec.get("path");
      if (path.empty()) {
        throw std::invalid_argument(
            "matrix 'mtx' needs a file path: mtx:<path> (or path=<path>)");
      }
      return sparse::read_matrix_market_file(path);
    });
    return r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Preconditioners
// ---------------------------------------------------------------------------

Registry<std::unique_ptr<krylov::Preconditioner>(const sparse::CsrMatrix&,
                                                 const ScenarioSpec&)>&
preconditioner_registry() {
  static auto* reg = [] {
    auto* r = new Registry<std::unique_ptr<krylov::Preconditioner>(
        const sparse::CsrMatrix&, const ScenarioSpec&)>("preconditioner");
    r->add("none", [](const std::string& arg, const sparse::CsrMatrix&,
                      const ScenarioSpec&)
               -> std::unique_ptr<krylov::Preconditioner> {
      no_arg(arg, "none");
      return nullptr;
    });
    r->add("jacobi", [](const std::string& arg, const sparse::CsrMatrix& A,
                        const ScenarioSpec&)
               -> std::unique_ptr<krylov::Preconditioner> {
      no_arg(arg, "jacobi");
      return std::make_unique<krylov::JacobiPreconditioner>(A);
    });
    r->add("ilu0", [](const std::string& arg, const sparse::CsrMatrix& A,
                      const ScenarioSpec&)
               -> std::unique_ptr<krylov::Preconditioner> {
      no_arg(arg, "ilu0");
      return std::make_unique<krylov::Ilu0Preconditioner>(A);
    });
    r->add("neumann", [](const std::string& arg, const sparse::CsrMatrix& A,
                         const ScenarioSpec& spec)
               -> std::unique_ptr<krylov::Preconditioner> {
      const std::size_t degree =
          arg.empty() ? spec.get_size("neumann_degree", 2)
                      : arg_size(arg, "neumann", 2);
      // 1/||A||_inf is a safe default omega (contraction of I - omega*A
      // for diagonally dominant A).
      const double norm = sparse::inf_norm(A);
      const double omega =
          spec.get_double("neumann_omega", norm > 0.0 ? 1.0 / norm : 1.0);
      return std::make_unique<OwningNeumannPreconditioner>(A, degree, omega);
    });
    return r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Fault models
// ---------------------------------------------------------------------------

Registry<sdc::FaultModel(const ScenarioSpec&)>& fault_model_registry() {
  static auto* reg = [] {
    auto* r = new Registry<sdc::FaultModel(const ScenarioSpec&)>("fault model");
    r->add("none", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "none");
      return sdc::FaultModel::scale(1.0); // identity; drivers skip injection
    });
    r->add("class1", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "class1");
      return sdc::fault_classes::very_large();
    });
    r->add("class2", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "class2");
      return sdc::fault_classes::slightly_smaller();
    });
    r->add("class3", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "class3");
      return sdc::fault_classes::nearly_zero();
    });
    r->add("scale", [](const std::string& arg, const ScenarioSpec&) {
      return sdc::FaultModel::scale(arg_double(arg, "scale", 1e150));
    });
    r->add("set", [](const std::string& arg, const ScenarioSpec&) {
      return sdc::FaultModel::set_value(
          arg_double(arg, "set", std::numeric_limits<double>::quiet_NaN()));
    });
    r->add("add", [](const std::string& arg, const ScenarioSpec&) {
      return sdc::FaultModel::add_value(arg_double(arg, "add", 1.0));
    });
    r->add("bitflip", [](const std::string& arg, const ScenarioSpec&) {
      return sdc::FaultModel::bit_flip(
          static_cast<unsigned>(arg_size(arg, "bitflip", 62)));
    });
    return r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Detectors
// ---------------------------------------------------------------------------

Registry<std::unique_ptr<sdc::HessenbergBoundDetector>(double,
                                                       const ScenarioSpec&)>&
detector_registry() {
  static auto* reg = [] {
    auto* r = new Registry<std::unique_ptr<sdc::HessenbergBoundDetector>(
        double, const ScenarioSpec&)>("detector");
    r->add("none",
           [](const std::string& arg, double, const ScenarioSpec&)
               -> std::unique_ptr<sdc::HessenbergBoundDetector> {
             no_arg(arg, "none");
             return nullptr;
           });
    r->add("bound", [](const std::string& arg, double default_bound,
                       const ScenarioSpec& spec)
               -> std::unique_ptr<sdc::HessenbergBoundDetector> {
      // Inline arg > `recovery` spec key > legacy `response` spec key.
      std::string response_name;
      if (!arg.empty()) {
        response_name = arg;
      } else if (spec.has("recovery")) {
        response_name = spec.get("recovery");
      } else {
        response_name = spec.get("response", "abort");
      }
      const sdc::DetectorResponse response =
          recovery_registry().make(response_name, spec);
      double bound = default_bound;
      if (const std::string text = spec.get("bound", "auto"); text != "auto") {
        bound = spec.get_double("bound", bound);
      }
      if (!(bound > 0.0)) {
        throw std::invalid_argument(
            "detector 'bound': the bound must be positive (pass bound=<num> "
            "or a positive default, e.g. ||A||_F)");
      }
      return std::make_unique<sdc::HessenbergBoundDetector>(bound, response);
    });
    return r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Recovery modes
// ---------------------------------------------------------------------------

Registry<sdc::DetectorResponse(const ScenarioSpec&)>& recovery_registry() {
  static auto* reg = [] {
    auto* r =
        new Registry<sdc::DetectorResponse(const ScenarioSpec&)>("recovery mode");
    r->add("none", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "none");
      return sdc::DetectorResponse::RecordOnly;
    });
    r->add("record", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "record");
      return sdc::DetectorResponse::RecordOnly;
    });
    r->add("abort", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "abort");
      return sdc::DetectorResponse::AbortSolve;
    });
    r->add("retry_reliable", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "retry_reliable");
      return sdc::DetectorResponse::RetryReliable;
    });
    r->add("restart_outer", [](const std::string& arg, const ScenarioSpec&) {
      no_arg(arg, "restart_outer");
      return sdc::DetectorResponse::RestartOuter;
    });
    return r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Solvers
// ---------------------------------------------------------------------------

Registry<std::unique_ptr<IterativeSolver>(const SolverContext&)>&
solver_registry() {
  static auto* reg = [] {
    auto* r = new Registry<std::unique_ptr<IterativeSolver>(
        const SolverContext&)>("solver");
    r->add("gmres", [](const std::string& arg, const SolverContext& ctx)
               -> std::unique_ptr<IterativeSolver> {
      no_arg(arg, "gmres");
      return std::make_unique<GmresSolver>(ctx.A, ctx.options);
    });
    r->add("fgmres", [](const std::string& arg, const SolverContext& ctx)
               -> std::unique_ptr<IterativeSolver> {
      no_arg(arg, "fgmres");
      return std::make_unique<FgmresSolver>(ctx.A, ctx.options, ctx.flexible);
    });
    r->add("ft_gmres", [](const std::string& arg, const SolverContext& ctx)
               -> std::unique_ptr<IterativeSolver> {
      no_arg(arg, "ft_gmres");
      return std::make_unique<FtGmresSolver>(ctx.A, ctx.options);
    });
    r->add("ft_gmres_batch", [](const std::string& arg,
                                const SolverContext& ctx)
               -> std::unique_ptr<IterativeSolver> {
      no_arg(arg, "ft_gmres_batch");
      return std::make_unique<FtGmresSolver>(ctx.A, ctx.options,
                                             "ft_gmres_batch");
    });
    r->add("cg", [](const std::string& arg, const SolverContext& ctx)
               -> std::unique_ptr<IterativeSolver> {
      no_arg(arg, "cg");
      return std::make_unique<CgSolver>(ctx.A, ctx.options);
    });
    r->add("fcg", [](const std::string& arg, const SolverContext& ctx)
               -> std::unique_ptr<IterativeSolver> {
      no_arg(arg, "fcg");
      return std::make_unique<FcgSolver>(ctx.A, ctx.options, ctx.flexible);
    });
    r->add("ft_cg", [](const std::string& arg, const SolverContext& ctx)
               -> std::unique_ptr<IterativeSolver> {
      no_arg(arg, "ft_cg");
      return std::make_unique<FtCgSolver>(ctx.A, ctx.options);
    });
    return r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Execution backends
// ---------------------------------------------------------------------------

namespace {

/// Parse `sell`'s inline geometry argument "C[:sigma]" (both decimal
/// integers, C in [1, 256], sigma >= 1).  Empty selects the defaults.
std::pair<std::size_t, std::size_t> parse_sell_geometry(
    const std::string& arg) {
  std::size_t chunk = sparse::SellMatrix::kDefaultChunk;
  std::size_t sigma = sparse::SellMatrix::kDefaultSigmaChunks;
  if (!arg.empty()) {
    const std::size_t colon = arg.find(':');
    const std::string c_str = arg.substr(0, colon);
    chunk = arg_size(c_str, "sell", 0);
    if (colon != std::string::npos) {
      sigma = arg_size(arg.substr(colon + 1), "sell", 0);
    }
  }
  if (chunk == 0 || chunk > sparse::SellMatrix::kMaxChunk) {
    throw std::invalid_argument(
        "registry: 'sell' chunk height C must be in [1, 256] "
        "(syntax: backend=sell:<C>[:<sigma>])");
  }
  if (sigma == 0) {
    throw std::invalid_argument(
        "registry: 'sell' sorting window sigma must be >= 1 chunk "
        "(syntax: backend=sell:<C>[:<sigma>])");
  }
  return {chunk, sigma};
}

/// The autotuner rule behind `backend=auto`: SELL pays off when rows
/// are wide enough to vectorize over (mean nnz/row) and regular enough
/// that padding stays cheap; otherwise keep CSR.  The thresholds are
/// deliberately simple and the full reasoning is recorded in the
/// decision string the report JSON surfaces.
constexpr double kAutoMinMeanRowLength = 4.0;
constexpr double kAutoMaxPaddingRatio = 1.25;

std::shared_ptr<const krylov::MatrixBackend>
autotune_backend(const sparse::CsrMatrix& A) {
  const sparse::RowLengthStats rls = sparse::row_length_stats(A);
  const double padding = sparse::sell_padding_ratio(
      A, sparse::SellMatrix::kDefaultChunk,
      sparse::SellMatrix::kDefaultSigmaChunks);
  const bool pick_sell =
      rls.mean >= kAutoMinMeanRowLength && padding <= kAutoMaxPaddingRatio;
  std::ostringstream why;
  why.precision(3);
  why << "auto: mean nnz/row " << rls.mean << ", row-length dispersion "
      << rls.dispersion() << ", sell:" << sparse::SellMatrix::kDefaultChunk
      << ':' << sparse::SellMatrix::kDefaultSigmaChunks << " padding "
      << padding << "x -> ";
  if (pick_sell) {
    why << "sell";
    return std::make_shared<krylov::SellBackend>(
        A, sparse::SellMatrix::kDefaultChunk,
        sparse::SellMatrix::kDefaultSigmaChunks, why.str());
  }
  why << "csr ("
      << (rls.mean < kAutoMinMeanRowLength ? "rows too short to vectorize over"
                                           : "padding overhead too high")
      << ")";
  return std::make_shared<krylov::CsrBackend>(why.str());
}

} // namespace

Registry<std::shared_ptr<const krylov::MatrixBackend>(
    const sparse::CsrMatrix&)>&
backend_registry() {
  static auto* reg = [] {
    auto* r = new Registry<std::shared_ptr<const krylov::MatrixBackend>(
        const sparse::CsrMatrix&)>("backend");
    r->add("csr",
           [](const std::string& arg, const sparse::CsrMatrix&)
               -> std::shared_ptr<const krylov::MatrixBackend> {
             no_arg(arg, "csr");
             return std::make_shared<krylov::CsrBackend>();
           });
    r->add("sell",
           [](const std::string& arg, const sparse::CsrMatrix& A)
               -> std::shared_ptr<const krylov::MatrixBackend> {
             const auto [chunk, sigma] = parse_sell_geometry(arg);
             return std::make_shared<krylov::SellBackend>(A, chunk, sigma);
           });
    r->add("auto",
           [](const std::string& arg, const sparse::CsrMatrix& A)
               -> std::shared_ptr<const krylov::MatrixBackend> {
             no_arg(arg, "auto");
             return autotune_backend(A);
           });
    return r;
  }();
  return *reg;
}

void validate_backend_key(std::string_view key) {
  backend_registry().require(key);
  const std::string k(key);
  const std::size_t colon = k.find(':');
  const std::string name = k.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? std::string() : k.substr(colon + 1);
  if (name == "sell") {
    (void)parse_sell_geometry(arg);
  } else if (name == "csr" || name == "auto") {
    no_arg(arg, name.c_str());
  }
}

} // namespace sdcgmres::solver
