/// \file probes.cpp
/// \brief The per-layer probes (see probes.hpp).

#include "probes.hpp"

#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "dense/hessenberg_qr.hpp"
#include "experiment/journal.hpp"
#include "experiment/scenario.hpp"
#include "hooks.hpp"
#include "krylov/gmres.hpp"
#include "krylov/matrix_powers.hpp"
#include "krylov/orthogonalize.hpp"
#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "la/tsqr.hpp"
#include "sdc/detector.hpp"
#include "sdc/injection.hpp"
#include "serve.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"
#include "sparse/norms.hpp"
#include "sparse/sell.hpp"

namespace perfbench {

namespace ex = sdcgmres::experiment;
namespace kr = sdcgmres::krylov;
namespace la = sdcgmres::la;
namespace sp = sdcgmres::sparse;

namespace {

/// Median time of \p fn, repeated until \p budget seconds have passed and
/// at least \p min_reps calls were made; \p prepare runs untimed before
/// each call (to restore operands the call overwrites).
template <typename Prep, typename Fn>
double median_until(double budget, std::size_t min_reps, Prep&& prepare,
                    Fn&& fn) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < min_reps || (now_s() - start < budget && t.size() < 2000)) {
    prepare();
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

template <typename Fn>
double median_until(double budget, std::size_t min_reps, Fn&& fn) {
  return median_until(budget, min_reps, [] {}, std::forward<Fn>(fn));
}

template <typename S>
std::vector<S> random_vector(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<S> v(n);
  for (S& e : v) e = static_cast<S>(dist(rng));
  return v;
}

double triad_gbps(std::size_t n, bool smoke) {
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 3.0;
  const auto kernel = [&] {
    double* pa = a.data();
    const double* pb = b.data();
    const double* pc = c.data();
    const auto len = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < len; ++i) pa[i] = pb[i] + scalar * pc[i];
  };
  kernel();
  const double t = median_until(smoke ? 0.01 : 0.5, 5, kernel);
  if (a[n / 2] != 7.0) return 0.0; // output check: 1 + 3*2
  return 3.0 * 8.0 * static_cast<double>(n) / t / 1e9;
}

/// MGS of one vector against k basis columns; returns {bytes, seconds}.
template <typename S>
std::pair<double, double> mgs(std::size_t n, std::size_t k,
                              std::mt19937_64& rng, bool smoke) {
  la::KrylovBasisT<S> q(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<S> col = random_vector<S>(n, rng);
    double norm = 0.0;
    for (const S e : col) norm += static_cast<double>(e) * e;
    for (S& e : col) e = static_cast<S>(e / std::sqrt(norm));
    q.append(std::span<const S>(col));
  }
  const std::vector<S> v0 = random_vector<S>(n, rng);
  std::vector<S> v(n), h(k);
  const double t = median_until(
      smoke ? 0.01 : 0.3, 5, [&] { std::copy(v0.begin(), v0.end(), v.begin()); },
      [&] {
        kr::orthogonalize(kr::Orthogonalization::MGS, q, k, std::span<S>(v),
                          std::span<S>(h), nullptr, kr::ArnoldiContext{});
      });
  // Per column: read q_i, read and write v.
  return {3.0 * static_cast<double>(k * n * sizeof(S)), t};
}

/// la::tsqr of one n x 4 panel (s = 4), seconds.
template <typename S>
double tsqr_seconds(std::size_t n, std::mt19937_64& rng, bool smoke) {
  const std::size_t m = 4;
  la::BlockWorkspaceT<S> ws(n, m);
  std::vector<std::vector<S>> src;
  for (std::size_t j = 0; j < m; ++j) src.push_back(random_vector<S>(n, rng));
  std::vector<S> r(m * m);
  return median_until(
      smoke ? 0.01 : 0.3, 5,
      [&] {
        for (std::size_t j = 0; j < m; ++j) {
          std::copy(src[j].begin(), src[j].end(), ws.col(j).begin());
        }
      },
      [&] { la::tsqr<S>(ws.view(m), r.data(), m); });
}

/// One benchmark-driven inner solve (25 fixed iterations) per repetition:
/// mean seconds per step spent in A.apply and in advance().
template <typename S, typename Op>
std::pair<double, double> engine_steps(const Op& A, std::size_t s,
                                       std::mt19937_64& rng, std::size_t reps) {
  kr::GmresOptions o;
  o.max_iters = 25;
  o.tol = 0.0;
  o.s_step = s;
  kr::KrylovWorkspaceT<S> ws;
  const std::vector<S> b = random_vector<S>(A.rows(), rng);
  std::vector<S> x(A.cols());
  double t_apply = 0.0;
  double t_advance = 0.0;
  std::size_t steps = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::fill(x.begin(), x.end(), S(0));
    kr::GmresEngineT<S> e(A.rows(), A.cols(), std::span<const S>(b),
                          std::span<S>(x), o, nullptr, 0, ws, nullptr);
    while (!e.finished()) {
      if (e.awaiting_residual()) {
        A.apply(e.residual_operand(), e.residual_target());
        e.start_cycle();
        continue;
      }
      e.begin_iteration();
      const double t0 = now_s();
      A.apply(e.direction(), e.v_target());
      const double t1 = now_s();
      e.advance();
      t_apply += t1 - t0;
      t_advance += now_s() - t1;
      ++steps;
    }
  }
  const double d = steps > 0 ? static_cast<double>(steps) : 1.0;
  return {t_apply / d, t_advance / d};
}

/// Triad array length: the three arrays together are 4x L3, so the
/// roofline is DRAM bandwidth, not a cache's.
std::size_t triad_len(std::size_t l3, bool smoke) {
  if (smoke || l3 == 0) return std::size_t{1} << 20;
  return 4 * l3 / (3 * sizeof(double));
}

} // namespace

std::size_t cache_bytes(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lv(dir + "/level");
    std::ifstream ty(dir + "/type");
    std::ifstream sz(dir + "/size");
    int l = 0;
    std::string type, size;
    if (!(lv >> l) || !(ty >> type) || !(sz >> size)) continue;
    if (l != level || type == "Instruction") continue;
    std::size_t mult = 1;
    if (!size.empty() && (size.back() == 'K' || size.back() == 'M')) {
      mult = size.back() == 'K' ? 1024 : 1024 * 1024;
      size.pop_back();
    }
    return static_cast<std::size_t>(std::stoull(size)) * mult;
  }
  return 0;
}

void service_metrics(const LoopResult& loop, Service& service, Tracer& tracer,
                     Metrics& layer) {
  put(layer, "service.submit_ms", 1e3 * median(tracer.durations("service.submit")), "ms");
  put(layer, "service.fetch_ms", 1e3 * median(tracer.durations("service.fetch")), "ms");
  put(layer, "service.http_rtt_ms", 1e3 * stats_rtt(service, 20, &tracer), "ms");
  put(layer, "service.queue_wait_p50_ms", 1e3 * percentile(loop.queue_wait_s, 50), "ms");
  put(layer, "service.queue_wait_p95_ms", 1e3 * percentile(loop.queue_wait_s, 95), "ms");
  put(layer, "service.run_p50_ms", 1e3 * percentile(loop.run_s, 50), "ms");
  put(layer, "service.run_p95_ms", 1e3 * percentile(loop.run_s, 95), "ms");
  const auto cache = service.scheduler().stats().cache;
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  put(layer, "service.cache_hit_ratio",
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0, "ratio");
  put(layer, "service.cache_lookups", lookups, "count");
}

bool run_layer_probes(const ProbeContext& ctx, Tracer& tracer, Metrics& layer,
                      ProbeFacts& facts) {
  bool ok = true;
  std::mt19937_64 rng(ctx.seed ^ 0x9e3779b97f4a7c15ULL);
  const sp::CsrMatrix& A = *ctx.A;
  const double rows = static_cast<double>(A.rows());
  const double cols = static_cast<double>(A.cols());
  const double nnz = static_cast<double>(A.nnz());
  const bool smoke = ctx.smoke;
  const double budget = smoke ? 0.01 : 0.3;

  // --- la: STREAM triad roofline (three arrays together 4x L3). ---
  facts.l3_bytes = static_cast<double>(cache_bytes(3));
  const std::size_t triad_n =
      triad_len(static_cast<std::size_t>(facts.l3_bytes), smoke);
  facts.triad_array_bytes = 8.0 * static_cast<double>(triad_n);
  facts.triad_threads = static_cast<std::size_t>(kernel_threads());
  double triad = 0.0;
  {
    ScopedSpan s(&tracer, "la.triad");
    triad = triad_gbps(triad_n, smoke);
  }
  ok = ok && triad > 0.0;
  put(layer, "la.triad_gbps", triad, "GB/s");
  const auto put_bw = [&](const std::string& name, double bytes,
                          double seconds) {
    const double gbps = bytes / seconds / 1e9;
    put(layer, name + "_gbps", gbps, "GB/s");
    put(layer, name + "_triad_pct", triad > 0 ? 100.0 * gbps / triad : 0.0,
        "%");
  };

  // --- sparse: CSR spmv / spmm on the workload's matrix. ---
  {
    ScopedSpan s(&tracer, "sparse.spmv_probe");
    const std::vector<double> x = random_vector<double>(A.cols(), rng);
    std::vector<double> y(A.rows());
    const double t = median_until(budget, 5, [&] {
      A.spmv(std::span<const double>(x), std::span<double>(y));
    });
    put_bw("sparse.spmv", nnz * 16 + (rows + 1) * 8 + (rows + cols) * 8, t);
  }
  {
    ScopedSpan s(&tracer, "sparse.spmm4");
    const std::vector<double> x = random_vector<double>(4 * A.cols(), rng);
    std::vector<double> y(4 * A.rows());
    const double t = median_until(budget, 5, [&] {
      A.spmm(4, x.data(), A.cols(), y.data(), A.rows());
    });
    put_bw("sparse.spmm4", nnz * 16 + (rows + 1) * 8 + 4 * (rows + cols) * 8,
           t);
  }
  // --- sparse: SELL assembly + float/int32 mirror, and its spmv. ---
  {
    double t_assemble = 0.0;
    std::unique_ptr<kr::SellBackend> sell;
    std::unique_ptr<sp::SellMatrixT<float, std::int32_t>> mirror;
    {
      ScopedSpan s(&tracer, "sparse.assemble");
      const double t0 = now_s();
      sell = std::make_unique<kr::SellBackend>(A);
      mirror = std::make_unique<sp::SellMatrixT<float, std::int32_t>>(
          sell->matrix());
      t_assemble = now_s() - t0;
    }
    put(layer, "sparse.assemble_s", t_assemble, "s");
    ScopedSpan s(&tracer, "sparse.sell_spmv");
    const std::vector<float> x = random_vector<float>(A.cols(), rng);
    std::vector<float> y(A.rows());
    const double t = median_until(budget, 5, [&] {
      mirror->spmv(std::span<const float>(x), std::span<float>(y));
    });
    put_bw("sparse.sell_spmv",
           4.0 * static_cast<double>(mirror->stored() + mirror->index_slots()) +
               (rows + cols) * 4,
           t);
  }
  {
    ScopedSpan s(&tracer, "sparse.calibrate");
    const double t0 = now_s();
    const double fro = A.frobenius_norm();
    const sp::NormEstimate est =
        sp::estimate_two_norm_batch(A, 4, smoke ? 3 : 10, 0.0);
    put(layer, "sparse.calibrate_s", now_s() - t0, "s");
    ok = ok && est.value > 0.0 && est.value <= fro * (1.0 + 1e-12);
  }

  // --- la: MGS against 12 and 24 columns; TSQR of one s=4 panel, at
  // the workload's inner-plane scalar. ---
  {
    ScopedSpan s(&tracer, "la.mgs_probe");
    double bytes = 0.0;
    double secs = 0.0;
    for (const std::size_t k : {std::size_t{12}, std::size_t{24}}) {
      const auto [b, t] = ctx.fop ? mgs<float>(A.rows(), k, rng, smoke)
                                  : mgs<double>(A.rows(), k, rng, smoke);
      bytes += b;
      secs += t;
    }
    put_bw("la.mgs", bytes, secs);
  }
  {
    ScopedSpan s(&tracer, "la.tsqr_probe");
    const double t = ctx.fop ? tsqr_seconds<float>(A.rows(), rng, smoke)
                             : tsqr_seconds<double>(A.rows(), rng, smoke);
    put(layer, "la.tsqr_ms", 1e3 * t, "ms");
  }

  // --- krylov: matrix powers (s=4) and a benchmark-driven inner solve. ---
  {
    ScopedSpan s(&tracer, "krylov.matrix_powers");
    la::BlockWorkspace out(A.rows(), 5);
    const std::vector<double> v = random_vector<double>(A.rows(), rng);
    const double t = median_until(budget, 3, [&] {
      kr::matrix_powers(*ctx.op, std::span<const double>(v), out.view(5));
    });
    put(layer, "krylov.matrix_powers_ms", 1e3 * t, "ms");
  }
  {
    ScopedSpan s(&tracer, "krylov.engine");
    const std::size_t reps = smoke ? 1 : 2;
    const auto [apply, advance] =
        ctx.fop ? engine_steps<float>(*ctx.fop, ctx.s_step, rng, reps)
                : engine_steps<double>(*ctx.op, ctx.s_step, rng, reps);
    put(layer, "krylov.inner_apply_ms", 1e3 * apply, "ms");
    put(layer, "krylov.inner_advance_ms", 1e3 * advance, "ms");
    // Step shares of the driven inner solve; solve workloads replace them
    // with the hook-span shares of their real inner solves.
    put(layer, "krylov.spmv_share", apply / (apply + advance), "ratio");
    put(layer, "krylov.ortho_share", advance / (apply + advance), "ratio");
  }

  // --- dense: one HessenbergQr column update, k <= 25. ---
  {
    ScopedSpan s(&tracer, "dense.qr");
    const std::size_t k = 25;
    std::vector<std::vector<double>> hcols;
    for (std::size_t j = 0; j < k; ++j) {
      hcols.push_back(random_vector<double>(j + 2, rng));
    }
    sdcgmres::dense::HessenbergQrT<double> qr;
    double sink = 0.0;
    const double t = median_until(budget, 20, [&] {
      qr.reset(k, 1.0);
      for (std::size_t j = 0; j < k; ++j) {
        sink += qr.add_column(std::span<const double>(hcols[j]));
      }
    });
    ok = ok && std::isfinite(sink);
    put(layer, "dense.qr_column_us", 1e6 * t / static_cast<double>(k), "us");
  }

  // --- sdc + solver: faulted and failure-free solves at the Fig-3 sweep
  // shape through the facade (kernels pinned to one thread, as the sweep
  // pins them). ---
  {
    const ex::ScenarioSpec spec = ex::ScenarioSpec::parse(
        smoke ? "matrix=poisson n=16 inner=8" : "matrix=poisson n=100 inner=25");
    const ex::ScenarioProblem problem = ex::build_problem(spec);
    const std::vector<double> b =
        random_vector<double>(problem.A.rows(), rng);
    const kr::CsrOperator op(problem.A);
    const SerialKernels serial;
    {
      ScopedSpan s(&tracer, "sdc.hook");
      sdcgmres::solver::Options o = ex::solver_options_from_spec(spec);
      o.recovery = kr::InnerRecovery::RetryReliable;
      sdcgmres::solver::FtGmresSolver solver(op, o);
      const auto plan = sdcgmres::sdc::InjectionPlan::hessenberg(
          rng() % (smoke ? 8 : 100), sdcgmres::sdc::MgsPosition::First,
          sdcgmres::solver::fault_model_registry().make("class1", spec));
      sdcgmres::sdc::FaultCampaign campaign(plan);
      sdcgmres::sdc::HessenbergBoundDetector detector(
          problem.A.frobenius_norm(),
          sdcgmres::sdc::DetectorResponse::RetryReliable);
      kr::HookChain chain({&campaign, &detector});
      TimingHook timing(chain);
      solver.set_hook(&timing);
      std::vector<double> x(problem.A.rows());
      const auto report = solver.solve(std::span<const double>(b),
                                       std::span<double>(x));
      ok = ok && report.converged();
      put(layer, "sdc.hook_ns",
          1e9 * timing.seconds() / static_cast<double>(timing.events()), "ns");
      put(layer, "sdc.injections", campaign.fired() ? 1.0 : 0.0, "count");
      put(layer, "sdc.detections", static_cast<double>(detector.detections()),
          "count");
      put(layer, "sdc.reliable_retries",
          static_cast<double>(report.reliable_retries), "count");
    }
    {
      ScopedSpan s(&tracer, "solver.baseline");
      sdcgmres::solver::FtGmresSolver solver(op,
                                             ex::solver_options_from_spec(spec));
      std::vector<double> x(problem.A.rows());
      bool converged = true;
      const double t = median_time(smoke ? 1 : 3, [&] {
        converged = converged && solver
                                     .solve(std::span<const double>(b),
                                            std::span<double>(x))
                                     .converged();
      });
      ok = ok && converged;
      put(layer, "experiment.baseline_ms", 1e3 * t, "ms");
    }
  }

  // --- experiment: journal append + fsync'd flush, warm run_scenario. ---
  {
    ScopedSpan s(&tracer, "experiment.journal");
    const std::string path = ctx.work_dir + "/probe_journal.jsonl";
    std::filesystem::remove(path);
    {
      ex::SweepJournal journal(path);
      journal.append_header(ex::SweepJournalHeader{});
      journal.flush();
      ex::SweepPoint point;
      point.outer_iterations = 13;
      point.converged = true;
      point.residual_norm = 1.25e-7;
      const std::size_t appends = 1000;
      const double t0 = now_s();
      for (std::size_t i = 0; i < appends; ++i) journal.append_point(i, point);
      put(layer, "experiment.journal_append_us",
          1e6 * (now_s() - t0) / static_cast<double>(appends), "us");
      journal.flush();
      std::size_t next = appends;
      const double t = median_time(smoke ? 2 : 10, [&] {
        for (int i = 0; i < 8; ++i) journal.append_point(next++, point);
        journal.flush();
      });
      put(layer, "experiment.journal_flush_ms", 1e3 * t, "ms");
    }
    ok = ok && ex::SweepJournal::load(path).points.size() > 0;
    std::filesystem::remove(path);
  }
  {
    ScopedSpan s(&tracer, "experiment.scenario");
    const ex::ScenarioSpec spec = ex::ScenarioSpec::parse(
        "matrix=poisson n=16 inner=8 sweep=1 fault=class1 site_limit=8");
    (void)ex::run_scenario(spec);
    const double t = median_time(smoke ? 1 : 5, [&] {
      ok = ok && ex::run_scenario(spec).sweep.failed_runs() == 0;
    });
    put(layer, "experiment.scenario_ms", 1e3 * t, "ms");
  }

  // --- service: a short traced closed loop over the serve-burst mix. ---
  if (ctx.service_probe) {
    const std::string root = ctx.work_dir + "/probe_spool";
    std::filesystem::remove_all(root);
    {
      const JobCatalog catalog = make_catalog(ctx.seed);
      const std::vector<JobSpec> order =
          make_job_order(catalog, ctx.seed, 256);
      Service service(root, 2);
      const LoopResult loop = closed_loop(service, catalog, order, 0.0,
                                          smoke ? 10 : 60, &tracer);
      ok = ok && loop.failed == 0;
      service_metrics(loop, service, tracer, layer);
    }
    std::filesystem::remove_all(root);
  }
  return ok;
}

} // namespace perfbench
