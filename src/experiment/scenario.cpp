#include "experiment/scenario.hpp"

#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "experiment/shard.hpp"
#include "krylov/operator.hpp"
#include "krylov/precision.hpp"
#include "sdc/injection.hpp"
#include "solver/registry.hpp"

namespace sdcgmres::experiment {

namespace {

[[noreturn]] void bad_choice(const char* key, const std::string& value,
                             const char* choices) {
  throw std::invalid_argument(std::string("scenario: ") + key + "='" + value +
                              "' is not one of: " + choices);
}

/// Loud up-front range validation for sweep-critical integer keys.  The
/// spec parser itself rejects negative values ("-4" is not a non-negative
/// integer) but without naming the valid range, and zero used to surface
/// only deep inside the sweep (after matrices were built) or as a silent
/// promotion; here both fail immediately, stating what IS valid.
std::size_t sweep_size_key(const ScenarioSpec& spec, std::string_view key,
                           std::size_t dflt, const char* range_doc) {
  const std::string raw = spec.get(key);
  if (!raw.empty() && raw[0] == '-') {
    throw std::invalid_argument(std::string("scenario: ") + std::string(key) +
                                "=" + raw + " is out of range; " + range_doc);
  }
  const std::size_t value = spec.get_size(key, dflt);
  if (value == 0) {
    throw std::invalid_argument(std::string("scenario: ") + std::string(key) +
                                "=0 is out of range; " + range_doc);
  }
  return value;
}

/// threads= and workers= arrive as untrusted spec text (sdc_serve tenants)
/// and become OpenMP threads and forked processes; both are capped here.
constexpr std::size_t kMaxParallelism = 256;

std::size_t capped(std::string_view key, std::size_t value) {
  if (value <= kMaxParallelism) return value;
  throw std::invalid_argument(
      std::string("scenario: ") + std::string(key) + "=" +
      std::to_string(value) + " is out of range; at most " +
      std::to_string(kMaxParallelism) + " are allowed");
}

/// A relative tolerance key: >= 0 (a negative target is never met, so the
/// solve would silently run out its budget).
double tolerance_key(const ScenarioSpec& spec, std::string_view key,
                     double dflt) {
  const double value = spec.get_double(key, dflt);
  if (value < 0.0) {
    throw std::invalid_argument(std::string("scenario: ") + std::string(key) +
                                "=" + spec.get(key) +
                                " is out of range; a tolerance is >= 0");
  }
  return value;
}

krylov::Orthogonalization parse_ortho(const ScenarioSpec& spec,
                                      std::string_view key,
                                      krylov::Orthogonalization dflt) {
  const std::string name = spec.get(key);
  if (name.empty()) return dflt;
  if (name == "mgs") return krylov::Orthogonalization::MGS;
  if (name == "cgs") return krylov::Orthogonalization::CGS;
  if (name == "cgs2") return krylov::Orthogonalization::CGS2;
  bad_choice(std::string(key).c_str(), name, "mgs cgs cgs2");
}

sdc::InjectionTarget parse_fault_target(const ScenarioSpec& spec,
                                        std::size_t s_step) {
  const std::string name = spec.get("fault_target", "coefficient");
  if (name == "coefficient") return sdc::InjectionTarget::ProjectionCoefficient;
  if (name == "subdiagonal") return sdc::InjectionTarget::SubdiagonalNorm;
  if (name == "matvec") return sdc::InjectionTarget::MatvecElement;
  if (name == "powers") {
    if (s_step < 2) {
      throw std::invalid_argument(
          "scenario: fault_target=powers corrupts a staged matrix power, "
          "which only exists in the s-step mode; set s=<block size> with "
          "s >= 2 (got s=" +
          std::to_string(s_step) + ")");
    }
    return sdc::InjectionTarget::PowerElement;
  }
  bad_choice("fault_target", name, "coefficient subdiagonal matvec powers");
}

} // namespace

void validate_scenario_keys(const ScenarioSpec& spec) {
  spec.require_keys_in({
      // problem
      "solver", "matrix", "n", "nodes", "path", "seed", "eps_x", "eps_y",
      "beta_x", "beta_y", "rhs",
      // preconditioner
      "precond", "neumann_degree", "neumann_omega",
      // solver options
      "tol", "max_iters", "restart", "ortho", "lsq", "inner", "inner_tol",
      "inner_ortho", "robust_first_inner", "precision", "index", "backend",
      "s",
      // fault + detector + recovery
      "fault", "fault_target", "element", "position", "site", "detector",
      "bound", "response", "recovery",
      // solve guards
      "deadline", "divergence",
      // sweep
      "sweep", "stride", "site_limit", "threads", "batch",
      // resilient sweep runtime
      "journal", "resume", "workers", "worker_timeout",
  });
}

ScenarioProblem build_problem(const ScenarioSpec& spec) {
  ScenarioProblem problem;
  problem.matrix_name = spec.get("matrix", "poisson");
  problem.A = solver::matrix_registry().make(problem.matrix_name, spec);

  // The circuit problem defaults to the consistent rhs b = A*1: with
  // kappa ~ 1e13 an arbitrary rhs would demand solution components beyond
  // what double-precision residuals can certify (see bench_common.hpp).
  const bool is_circuit = problem.matrix_name.rfind("circuit", 0) == 0;
  const std::string rhs = spec.get("rhs", is_circuit ? "consistent" : "ones");
  if (rhs == "ones") {
    problem.b = la::ones(problem.A.rows());
  } else if (rhs == "consistent") {
    problem.b = problem.A.apply(la::ones(problem.A.rows()));
  } else if (rhs == "random") {
    std::mt19937 rng(static_cast<unsigned>(spec.get_size("seed", 42)));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    problem.b.resize(problem.A.rows());
    for (std::size_t i = 0; i < problem.b.size(); ++i) problem.b[i] = dist(rng);
  } else {
    bad_choice("rhs", rhs, "ones consistent random");
  }
  return problem;
}

solver::Options solver_options_from_spec(const ScenarioSpec& spec) {
  solver::Options opts;
  opts.max_iters = spec.get_size("max_iters", 0);
  opts.restart = spec.get_size("restart", 0);
  opts.tol = tolerance_key(spec, "tol", opts.tol);
  opts.ortho = parse_ortho(spec, "ortho", opts.ortho);
  if (const std::string lsq = spec.get("lsq"); !lsq.empty()) {
    if (lsq == "standard") {
      opts.lsq_policy = dense::LsqPolicy::Standard;
    } else if (lsq == "fallback") {
      opts.lsq_policy = dense::LsqPolicy::Fallback;
    } else if (lsq == "rank_revealing") {
      opts.lsq_policy = dense::LsqPolicy::RankRevealing;
    } else {
      bad_choice("lsq", lsq, "standard fallback rank_revealing");
    }
  }
  opts.inner_iters = spec.get_size("inner", opts.inner_iters);
  opts.inner_tol = tolerance_key(spec, "inner_tol", opts.inner_tol);
  opts.inner_ortho = parse_ortho(spec, "inner_ortho", opts.inner_ortho);
  opts.robust_first_inner =
      spec.get_bool("robust_first_inner", opts.robust_first_inner);
  if (const std::string precision = spec.get("precision");
      !precision.empty()) {
    if (precision == "double") {
      opts.precision = krylov::Precision::Double;
    } else if (precision == "float") {
      opts.precision = krylov::Precision::Float;
    } else {
      bad_choice("precision", precision, "double float");
    }
  }
  if (const std::string index = spec.get("index"); !index.empty()) {
    if (index == "64") {
      opts.index_width = krylov::IndexWidth::I64;
    } else if (index == "32") {
      opts.index_width = krylov::IndexWidth::I32;
    } else {
      bad_choice("index", index, "32 64");
    }
  }
  opts.s_step = sweep_size_key(
      spec, "s", 1,
      "the s-step block size ranges over s >= 1 (1 = the classical "
      "bitwise-identical path; the solver additionally requires s <= the "
      "restart cycle length, and only gmres/ft_gmres/ft_gmres_batch have "
      "an s-step path)");
  opts.deadline_seconds = spec.get_double("deadline", 0.0);
  if (opts.deadline_seconds < 0.0) {
    throw std::invalid_argument(
        "scenario: deadline=" + spec.get("deadline") +
        " is out of range; the wall-clock budget is in seconds, >= 0 "
        "(0 disables the guard)");
  }
  opts.divergence_factor = spec.get_double("divergence", 0.0);
  if (opts.divergence_factor < 0.0) {
    throw std::invalid_argument(
        "scenario: divergence=" + spec.get("divergence") +
        " is out of range; the guard flags ||r|| > divergence * ||r0||, "
        "so the factor must be >= 0 (0 disables it; typical values >= 10)");
  }
  return opts;
}

ShardOptions shard_options_from_spec(const ScenarioSpec& spec) {
  ShardOptions shard;
  shard.workers = capped(
      "workers", sweep_size_key(spec, "workers", 1,
                                "the valid range is workers >= 1 (1 = "
                                "in-process sweep, >1 = crash-tolerant "
                                "process sharding)"));
  shard.worker_timeout_seconds = spec.get_double("worker_timeout", 0.0);
  if (shard.worker_timeout_seconds < 0.0) {
    throw std::invalid_argument(
        "scenario: worker_timeout=" + spec.get("worker_timeout") +
        " is out of range; the per-attempt deadline is in seconds, >= 0 "
        "(0 disables it)");
  }
  return shard;
}

sdc::MgsPosition position_from_spec(const ScenarioSpec& spec,
                                    std::size_t& coefficient_index) {
  coefficient_index = 0;
  const std::string name = spec.get("position", "first");
  if (name == "first") return sdc::MgsPosition::First;
  if (name == "last") return sdc::MgsPosition::Last;
  if (name.rfind("index:", 0) == 0) {
    const std::string digits = name.substr(6);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      bad_choice("position", name, "first last index:<i>");
    }
    try {
      coefficient_index = std::stoull(digits, nullptr, 10);
    } catch (const std::exception&) {
      bad_choice("position", name, "first last index:<i>");
    }
    return sdc::MgsPosition::Index;
  }
  bad_choice("position", name, "first last index:<i>");
}

/// The nested solvers' preconditioner IS the unreliable inner solve;
/// silently dropping a requested fixed preconditioner would misattribute
/// experiment results, so it is rejected loudly (same philosophy as
/// IterativeSolver::set_hook on a hookless solver).
static void reject_precond_for_nested(const ScenarioSpec& spec,
                                      const std::string& solver_name) {
  if (spec.get("precond", "none") != "none") {
    throw std::invalid_argument(
        "scenario: solver '" + solver_name +
        "' is a nested solver whose preconditioner is the unreliable "
        "inner solve; precond=" +
        spec.get("precond") +
        " would be silently ignored -- drop it or pick "
        "gmres/fgmres/cg/fcg");
  }
}

SweepConfig sweep_config_from_spec(const ScenarioSpec& spec,
                                   double frobenius_norm) {
  const std::string solver_name = spec.get("solver", "ft_gmres");
  if (solver_name != "ft_gmres" && solver_name != "ft_gmres_batch") {
    throw std::invalid_argument(
        "scenario: the injection sweep runs the paper's nested solver; "
        "specify solver=ft_gmres (got solver=" +
        solver_name + "; lockstep batching is the batch= key)");
  }
  reject_precond_for_nested(spec, solver_name);

  // Fail fast, listing the valid ranges, before anything expensive runs:
  // inner=0 would admit no injection sites at all, and batch=0 names no
  // lockstep block shape.  (The default inner budget is the paper's 25.)
  (void)sweep_size_key(spec, "inner", solver::Options{}.inner_iters,
                       "the injection-site axis counts inner Arnoldi "
                       "iterations, so the valid range is inner >= 1 "
                       "(paper protocol: inner=25)");
  const std::size_t batch =
      sweep_size_key(spec, "batch", 1,
                     "the valid range is batch >= 1 (1 = solo solves, "
                     ">1 = sites solved in lockstep per sweep worker)");

  SweepConfig config;
  config.solver = solver::to_ft_gmres_options(solver_options_from_spec(spec));

  // Loud up-front backend validation (unknown names list the registry's
  // keys; bad sell geometry names the syntax) -- assembly itself waits
  // until the matrix exists (run_scenario / run_injection_sweep).
  config.backend_key = spec.get("backend", "csr");
  solver::validate_backend_key(config.backend_key);

  const std::string fault = spec.get("fault", "class1");
  if (fault == "none") {
    throw std::invalid_argument(
        "scenario: a sweep injects one fault per site; fault=none is "
        "meaningless (drop sweep=1 for a failure-free solve)");
  }
  config.model = solver::fault_model_registry().make(fault, spec);
  config.target = parse_fault_target(spec, config.solver.inner.s_step);
  config.element_index = spec.get_size("element", 0);

  std::size_t coefficient_index = 0;
  config.position = position_from_spec(spec, coefficient_index);
  if (config.position == sdc::MgsPosition::Index) {
    throw std::invalid_argument(
        "scenario: sweeps support position=first|last (the paper's two "
        "series); per-index sweeps need the InjectionPlan API");
  }

  const std::string detector = spec.get("detector", "none");
  if (detector == "none" && spec.has("recovery")) {
    throw std::invalid_argument(
        "scenario: recovery=" + spec.get("recovery") +
        " needs a detector to trigger it; set detector=bound (or drop "
        "the recovery key)");
  }
  if (detector != "none") {
    // Build one detector to validate the spec and to resolve bound and
    // response exactly as the registry does (inline arg wins over the
    // `response` key); the sweep engine constructs per-site instances.
    const auto probe =
        solver::detector_registry().make(detector, frobenius_norm, spec);
    if (probe == nullptr) {
      throw std::invalid_argument("scenario: detector '" + detector +
                                  "' produced no detector");
    }
    config.with_detector = true;
    config.detector_bound = probe->bound();
    config.detector_response = probe->response();
  }

  config.stride = spec.get_size("stride", 1);
  config.site_limit = spec.get_size("site_limit", 0);
  config.threads = capped("threads", spec.get_size("threads", 1));
  config.batch = batch;
  config.journal = spec.get("journal");
  config.resume = spec.get_bool("resume", false);
  if (config.resume && config.journal.empty()) {
    throw std::invalid_argument(
        "scenario: resume=1 needs journal=<path> (the journal is what a "
        "resumed sweep picks its completed points back up from)");
  }
  if (solver_name == "ft_gmres_batch" && !spec.has("batch")) {
    // The name promises lockstep batching; defaulting to batch=1 would
    // silently run solo solves under it and misattribute measurements.
    throw std::invalid_argument(
        "scenario: solver=ft_gmres_batch in a sweep needs an explicit "
        "batch=B (the sweep engine batches by the batch= key; use "
        "solver=ft_gmres for solo solves)");
  }
  // Everything the sweep engine would reject is rejected here, before
  // any caller-built matrix or baseline solve is wasted on it.
  validate_sweep_config(config);
  return config;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, ScenarioSeams{});
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ScenarioSeams& seams) {
  validate_scenario_keys(spec);

  ScenarioResult result;
  result.spec_text = spec.to_string();
  result.solver_name = spec.get("solver", "ft_gmres");

  // A seam-provided problem (the service's artifact cache) replaces
  // build_problem; it was built from the same problem keys, so the
  // result is unchanged -- only the construction cost is.
  std::shared_ptr<const ScenarioProblem> owned;
  if (seams.problem == nullptr) {
    owned = std::make_shared<const ScenarioProblem>(build_problem(spec));
  }
  const ScenarioProblem& problem = seams.problem ? *seams.problem : *owned;
  result.matrix_name = problem.matrix_name;
  result.n = problem.A.rows();
  result.nnz = problem.A.nnz();

  const double frobenius_norm = seams.frobenius_norm >= 0.0
                                    ? seams.frobenius_norm
                                    : problem.A.frobenius_norm();

  // Resolve the execution backend once per scenario (a seam-provided
  // assembly -- the service's artifact cache -- must match the spec's
  // backend= key, exactly like the problem seam).
  std::shared_ptr<const krylov::MatrixBackend> backend = seams.backend;
  if (backend == nullptr) {
    backend =
        solver::backend_registry().make(spec.get("backend", "csr"), problem.A);
  }
  result.backend_name = backend->name();
  result.backend_decision = backend->decision();

  if (spec.get_bool("sweep", false)) {
    result.is_sweep = true;
    SweepConfig config = sweep_config_from_spec(spec, frobenius_norm);
    config.backend = backend;
    // Runtime plumbing lands AFTER the spec translation so spec_text (and
    // the result JSON) never reflects where the scheduler journals a job.
    if (!seams.journal.empty()) {
      config.journal = seams.journal;
      config.resume = seams.resume;
    }
    const ShardOptions shard = shard_options_from_spec(spec);
    if (shard.workers > 1) {
      result.sharded = true;
      result.sweep = run_sharded_sweep(problem.A, problem.b, config, shard,
                                       &result.shard);
    } else {
      result.sweep = run_injection_sweep(problem.A, problem.b, config);
    }
    return result;
  }

  // --- Single solve through the façade. ---
  if (result.solver_name == "ft_gmres" ||
      result.solver_name == "ft_gmres_batch" ||
      result.solver_name == "ft_cg") {
    reject_precond_for_nested(spec, result.solver_name);
  }
  solver::Options options = solver_options_from_spec(spec);
  if ((options.precision != krylov::Precision::Double ||
       options.index_width != krylov::IndexWidth::I64) &&
      result.solver_name != "ft_gmres" &&
      result.solver_name != "ft_gmres_batch") {
    throw std::invalid_argument(
        "scenario: precision=/index= select the mixed inner data plane of "
        "the nested GMRES solvers; they apply to solver=ft_gmres or "
        "solver=ft_gmres_batch only (got solver=" +
        result.solver_name + ")");
  }
  // Preconditioner::apply is const, so a seam-shared instance (the
  // service's ILU0 cache) is safe across concurrent jobs.
  std::unique_ptr<krylov::Preconditioner> built_precond;
  if (seams.precond == nullptr) {
    built_precond = solver::preconditioner_registry().make(
        spec.get("precond", "none"), problem.A, spec);
  }
  options.precond =
      seams.precond ? seams.precond.get() : built_precond.get();

  // One planned fault (paper protocol: a single transient SDC event) and
  // an optional detector, chained so the detector sees corrupted values.
  // The detector is built BEFORE the solver: its response decides the
  // nested solvers' recovery mode (options.recovery).
  std::unique_ptr<sdc::FaultCampaign> campaign;
  const std::string fault = spec.get("fault", "none");
  if (fault == "none" && spec.has("fault_target")) {
    throw std::invalid_argument(
        "scenario: fault_target=" + spec.get("fault_target") +
        " names what a fault corrupts, but fault=none plans no fault; "
        "pick a fault class (or drop the fault_target key)");
  }
  if (fault != "none") {
    std::size_t coefficient_index = 0;
    sdc::InjectionPlan plan;
    plan.target = parse_fault_target(spec, options.s_step);
    plan.position = position_from_spec(spec, coefficient_index);
    plan.coefficient_index = coefficient_index;
    plan.aggregate_iteration = spec.get_size("site", 0);
    plan.element_index = spec.get_size("element", 0);
    plan.model = solver::fault_model_registry().make(fault, spec);
    campaign = std::make_unique<sdc::FaultCampaign>(plan);
  }
  auto detector = solver::detector_registry().make(
      spec.get("detector", "none"), frobenius_norm, spec);
  if (detector == nullptr && spec.has("recovery")) {
    throw std::invalid_argument(
        "scenario: recovery=" + spec.get("recovery") +
        " needs a detector to trigger it; set detector=bound (or drop "
        "the recovery key)");
  }
  if (detector != nullptr) {
    options.recovery = sdc::inner_recovery_for(detector->response());
  }

  const std::unique_ptr<krylov::LinearOperator> op =
      backend->make_operator(problem.A);
  const auto iterative = solver::solver_registry().make(
      result.solver_name, solver::SolverContext{*op, options, nullptr});

  krylov::HookChain chain;
  if (campaign != nullptr) chain.add(campaign.get());
  if (detector != nullptr) chain.add(detector.get());
  if (campaign != nullptr || detector != nullptr) {
    iterative->set_hook(&chain); // throws for solvers without a hook seam
  }

  result.x.resize(problem.A.rows());
  result.report = iterative->solve(problem.b.span(), result.x.span());
  result.injected = campaign != nullptr && campaign->fired();
  result.detected = detector != nullptr && detector->triggered();
  return result;
}

ScenarioResult run_scenario(std::string_view spec_text) {
  return run_scenario(ScenarioSpec::parse(spec_text));
}

SweepResult run_injection_sweep(const ScenarioSpec& spec) {
  ScenarioSpec sweep = spec;
  sweep.set("sweep", "1");
  return run_scenario(sweep).sweep;
}

} // namespace sdcgmres::experiment
