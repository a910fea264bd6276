/// \file main.cpp
/// \brief Layered benchmark harness for sdcgmres.
///
/// Usage:
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --work DIR [--commit SHA] [--smoke]
///   perfbench --selftest-oracle --work DIR
///
/// Workloads: solve-dram, solve-ca, sweep-fig3, serve-burst (see
/// perfbench/README.md for what each stresses and why).  With --trace 0
/// the last stdout line carries the end-to-end metrics; with --trace 1 it
/// carries the per-layer metrics of a traced run (harness-side spans
/// around public calls plus a pass-through Arnoldi hook), including self
/// times and the tracing overhead.  The line before it is a report object
/// (machine and size manifest, per-solve records, determinism record).
/// --smoke shrinks every size for the self-check; --selftest-oracle feeds
/// the correctness oracle deliberately corrupted outputs.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "hooks.hpp"
#include "krylov/backend.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/mixed.hpp"
#include "oracle.hpp"
#include "probes.hpp"
#include "serve.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace ex = sdcgmres::experiment;
namespace kr = sdcgmres::krylov;
namespace la = sdcgmres::la;

const char* const kLayers[] = {"gen",    "sparse", "la",         "dense",
                               "krylov", "sdc",    "solver",     "experiment",
                               "service"};

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

/// What a workload run produced.
struct Outcome {
  Metrics e2e;
  Metrics layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool probes_ok = true;
  std::size_t rows = 0;
  std::size_t nnz = 0;
  double working_set_bytes = 0.0;
  std::vector<std::pair<std::string, std::string>> report; ///< raw JSON
};

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  return "\"" + ex::json_escape(s) + "\"";
}

std::string jobj(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += jstr(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

std::string jmetrics(const Metrics& m) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const auto& [name, metric] : m) {
    kv.emplace_back(name, jobj({{"value", jnum(metric.value)},
                                {"unit", jstr(metric.unit)}}));
  }
  return jobj(kv);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Inputs and shared helpers
// ---------------------------------------------------------------------------

/// The workload's right-hand side, drawn from its seed: each entry is
/// base + scale * U(-1, 1).
la::Vector seeded_rhs(std::size_t n, std::uint64_t seed, double base = 0.0,
                      double scale = 1.0) {
  std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dULL + 0x5dc);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  la::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = base + scale * dist(rng);
  return b;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/// Run units until \p seconds have passed, never starting one that would
/// end past the budget (at least one unit always runs).
template <typename Fn>
void run_units(double seconds, Fn&& unit) {
  const double start = now_s();
  for (;;) {
    const double t0 = now_s();
    unit();
    const double last = now_s() - t0;
    if (now_s() - start + last > seconds) break;
  }
}

/// Close a traced run: every layer's self time and the roofline facts.
void finish_trace(const Tracer& tracer, const ProbeFacts& facts,
                  Outcome& out) {
  const std::map<std::string, double> self = tracer.self_by_layer();
  for (const char* l : kLayers) {
    const auto it = self.find(l);
    put(out.layer, std::string("self.") + l + "_s",
        it == self.end() ? 0.0 : it->second, "s");
  }
  out.report.emplace_back(
      "roofline",
      jobj({{"triad_array_bytes", jnum(facts.triad_array_bytes)},
            {"triad_total_bytes", jnum(3 * facts.triad_array_bytes)},
            {"l3_bytes", jnum(facts.l3_bytes)},
            {"triad_threads", jnum(static_cast<double>(facts.triad_threads))}}));
}

void put_e2e(Outcome& out, double setup, double solve,
             const std::vector<double>& job_s, double jobs, double sites,
             double wall) {
  put(out.e2e, "setup_s", setup, "s");
  put(out.e2e, "solve_s", solve, "s");
  put(out.e2e, "sites_per_s", sites / wall, "1/s");
  put(out.e2e, "jobs_per_s", jobs / wall, "1/s");
  put(out.e2e, "job_p50_s", percentile(job_s, 50), "s");
  put(out.e2e, "job_p95_s", percentile(job_s, 95), "s");
  put(out.e2e, "peak_rss_mb", peak_rss_mb(), "MB");
}

// ---------------------------------------------------------------------------
// solve-dram / solve-ca: one ft_gmres solve to tolerance
// ---------------------------------------------------------------------------

struct SolveSetup {
  ex::ScenarioProblem problem;
  la::Vector b;
  std::shared_ptr<const kr::MatrixBackend> backend;
  std::unique_ptr<kr::LinearOperator> op;
  kr::FtGmresWorkspace ws;
  kr::FtGmresOptions opts;
  const kr::MixedOperatorT<float>* fop = nullptr;
};

/// Matrix build, seeded rhs, backend assembly and the narrowed inner
/// mirror: everything before the first solve iteration.
std::unique_ptr<SolveSetup> setup_solve(const ex::ScenarioSpec& spec,
                                        std::uint64_t seed, Tracer* tr) {
  auto s = std::make_unique<SolveSetup>();
  {
    ScopedSpan span(tr, "gen.build");
    s->problem = ex::build_problem(spec);
  }
  {
    ScopedSpan span(tr, "gen.rhs");
    s->b = seeded_rhs(s->problem.A.rows(), seed);
  }
  {
    ScopedSpan span(tr, "sparse.backend");
    s->backend = sdcgmres::solver::backend_registry().make(
        spec.get("backend", "csr"), s->problem.A);
    s->op = s->backend->make_operator(s->problem.A);
  }
  s->opts = sdcgmres::solver::to_ft_gmres_options(
      ex::solver_options_from_spec(spec));
  // solve-ca's float/int32 inner plane, assembled here so it counts in
  // setup; ft_gmres finds it in the workspace and reuses it.
  if (s->opts.precision == kr::Precision::Float &&
      s->opts.index_width == kr::IndexWidth::I32) {
    ScopedSpan span(tr, "sparse.mirror");
    s->fop = &kr::ensure_plane<float, std::int32_t>(s->ws.plane, *s->op)
                  .typed_op();
  }
  return s;
}

struct SolveRecord {
  double seconds = 0.0;
  std::size_t outer = 0;
  std::size_t inner = 0;
  std::size_t syncs = 0;
  double rel_residual = 0.0;
  bool ok = false;
  std::uint64_t digest = 0;
  kr::OperatorStats traffic;
};

/// One solve in the setup's workspace.  The first solve allocates its
/// arenas; later ones reuse them, as a caller holding a workspace does.
SolveRecord solve_once(SolveSetup& s, Tracer* tr) {
  s.op->reset_stats();
  if (s.ws.plane) s.ws.plane->reset_stats();
  std::unique_ptr<TracingHook> hook;
  int root = -1;
  if (tr) {
    root = tr->open("krylov.ft_gmres", -1);
    hook = std::make_unique<TracingHook>(*tr, root);
  }
  const double t0 = now_s();
  const kr::FtGmresResult r = kr::ft_gmres(*s.op, s.b, s.opts, hook.get(), &s.ws);
  SolveRecord rec;
  rec.seconds = now_s() - t0;
  if (tr) {
    hook->finish();
    tr->close(root);
  }
  std::vector<double> residual;
  rec.rel_residual = relative_residual(s.problem.A, s.b.span(), r.x.span(),
                                       &residual);
  rec.ok = solve_ok(kr::is_success(r.status), rec.rel_residual,
                    s.opts.outer.tol);
  rec.digest = digest(residual);
  rec.outer = r.outer_iterations;
  rec.inner = r.total_inner_iterations;
  rec.syncs = r.global_syncs;
  rec.traffic = s.op->stats();
  if (s.ws.plane) rec.traffic += s.ws.plane->stats();
  return rec;
}

/// Append this run's solves to the determinism record (one line per
/// solve: commit, seed, kernel threads, rows, outer iterations, residual
/// digest) and summarize every recorded solve of the same commit, seed,
/// thread count and size.  Keying on the commit keeps a change that
/// legitimately moves the residual bits from reading as nondeterminism.
std::string determinism_record(const Args& a, std::size_t rows,
                               const std::vector<SolveRecord>& solves) {
  const std::string path = a.work_dir + "/determinism.txt";
  {
    std::ofstream out(path, std::ios::app);
    for (const SolveRecord& r : solves) {
      out << a.commit << ' ' << a.seed << ' ' << kernel_threads() << ' '
          << rows << ' ' << r.outer << ' ' << hex(r.digest) << '\n';
    }
  }
  std::ifstream in(path);
  std::string commit;
  std::uint64_t seed = 0;
  int threads = 0;
  std::size_t n = 0;
  std::size_t outer = 0;
  std::string dg;
  std::set<std::string> digests;
  std::size_t lo = SIZE_MAX, hi = 0, count = 0;
  while (in >> commit >> seed >> threads >> n >> outer >> dg) {
    if (commit != a.commit || seed != a.seed ||
        threads != kernel_threads() || n != rows) {
      continue;
    }
    digests.insert(dg);
    lo = std::min(lo, outer);
    hi = std::max(hi, outer);
    ++count;
  }
  return jobj({{"file", jstr(path)},
               {"solves_same_seed", jnum(static_cast<double>(count))},
               {"outer_min", jnum(static_cast<double>(lo))},
               {"outer_max", jnum(static_cast<double>(hi))},
               {"distinct_digests", jnum(static_cast<double>(digests.size()))},
               {"bitwise_repeat", digests.size() == 1 ? "true" : "false"}});
}

void workload_solve(const Args& a, const std::string& spec_text,
                    Outcome& out) {
  const ex::ScenarioSpec spec = ex::ScenarioSpec::parse(spec_text);
  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;

  std::vector<double> setup_t;
  std::unique_ptr<SolveSetup> s;
  for (int rep = 0; rep < (a.smoke ? 2 : 15); ++rep) {
    s.reset();
    const double t0 = now_s();
    s = setup_solve(spec, a.seed, tr);
    setup_t.push_back(now_s() - t0);
  }

  // Untimed warm-up: allocates the workspace arenas, whose page faults
  // would otherwise add a noisy ~0.1 s to the first solve.
  std::vector<SolveRecord> all = {solve_once(*s, nullptr)};
  std::vector<SolveRecord> untraced;
  SolveRecord traced;
  if (a.trace) {
    untraced.push_back(solve_once(*s, nullptr));
    traced = solve_once(*s, &tracer);
  } else {
    run_units(a.seconds, [&] { untraced.push_back(solve_once(*s, nullptr)); });
  }

  all.insert(all.end(), untraced.begin(), untraced.end());
  if (a.trace) all.push_back(traced);
  std::vector<double> times, outers;
  std::set<std::uint64_t> digests;
  double wall = 0.0, inner = 0.0;
  std::vector<std::string> records;
  for (const SolveRecord& r : all) {
    ++out.attempted;
    if (!r.ok) ++out.failed;
    digests.insert(r.digest);
    outers.push_back(static_cast<double>(r.outer));
    records.push_back(jobj({{"seconds", jnum(r.seconds)},
                            {"outer", jnum(static_cast<double>(r.outer))},
                            {"inner", jnum(static_cast<double>(r.inner))},
                            {"rel_residual", jnum(r.rel_residual)},
                            {"ok", r.ok ? "true" : "false"},
                            {"residual_digest", jstr(hex(r.digest))}}));
  }
  for (const SolveRecord& r : untraced) {
    times.push_back(r.seconds);
    wall += r.seconds;
    inner += static_cast<double>(r.inner);
  }
  put_e2e(out, median(setup_t), median(times), times,
          static_cast<double>(untraced.size()), inner, wall);

  const SolveRecord& first = all.front();
  out.rows = s->problem.A.rows();
  out.nnz = s->problem.A.nnz();
  // Computed working set: CSR matrix, SELL structure and its float/int32
  // mirror (half the SELL bytes), the inner basis at the plane's scalar,
  // and the outer V and Z columns the solve touched.
  const double rows = static_cast<double>(out.rows);
  const double scalar = s->fop ? 4.0 : 8.0;
  out.working_set_bytes =
      16.0 * static_cast<double>(out.nnz) + 8.0 * (rows + 1) +
      static_cast<double>(s->backend->resident_bytes()) *
          (s->fop ? 1.5 : 1.0) +
      scalar * rows * static_cast<double>(s->opts.inner.max_iters + 1) +
      8.0 * rows * 2.0 * static_cast<double>(first.outer + 1);
  std::string list = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    list += (i ? ", " : "") + records[i];
  }
  out.report.emplace_back("solves", list + "]");
  out.report.emplace_back("determinism",
                          determinism_record(a, out.rows, all));

  if (!a.trace) return;
  put(out.layer, "gen.build_s", median(tracer.durations("gen.build")), "s");
  put(out.layer, "krylov.outer_iters", median(outers), "count");
  put(out.layer, "krylov.inner_iters", static_cast<double>(first.inner),
      "count");
  put(out.layer, "krylov.global_syncs", static_cast<double>(first.syncs),
      "count");
  put(out.layer, "krylov.operator_bytes",
      static_cast<double>(first.traffic.bytes()), "bytes");
  put(out.layer, "krylov.stream_ratio",
      static_cast<double>(first.traffic.streams()) /
          static_cast<double>(std::max<std::size_t>(1, first.traffic.columns())),
      "ratio");
  put(out.layer, "krylov.distinct_digests",
      static_cast<double>(digests.size()), "count");
  const double spmv = tracer.total("sparse.inner_spmv");
  const double ortho = tracer.total("la.inner_ortho");
  out.report.emplace_back(
      "span_shares",
      jobj({{"solve_s_traced", jnum(traced.seconds)},
            {"spmv_self_s", jnum(spmv)},
            {"ortho_self_s", jnum(ortho)},
            {"spmv_plus_ortho_share", jnum((spmv + ortho) / traced.seconds)}}));

  ProbeContext ctx;
  ctx.A = &s->problem.A;
  ctx.op = s->op.get();
  ctx.fop = s->fop;
  ctx.s_step = s->opts.inner.s_step;
  ctx.seed = a.seed;
  ctx.smoke = a.smoke;
  ctx.work_dir = a.work_dir;
  ProbeFacts facts;
  out.probes_ok = run_layer_probes(ctx, tracer, out.layer, facts);
  // The real inner solves' hook-span shares replace the probe's.
  put(out.layer, "krylov.spmv_share", spmv / traced.seconds, "ratio");
  put(out.layer, "krylov.ortho_share", ortho / traced.seconds, "ratio");
  put(out.layer, "trace.overhead", traced.seconds / untraced.front().seconds,
      "ratio");
  finish_trace(tracer, facts, out);
}

// ---------------------------------------------------------------------------
// sweep-fig3: two Fig-3 cells (unguarded, guarded) at paper scale
// ---------------------------------------------------------------------------

struct SweepSetup {
  ex::ScenarioProblem problem;
  la::Vector b;
  ex::SweepConfig cells[2];
};

std::unique_ptr<SweepSetup> setup_sweep(const std::string& base,
                                        const std::string cell_specs[2],
                                        std::uint64_t seed, Tracer* tr) {
  auto s = std::make_unique<SweepSetup>();
  {
    ScopedSpan span(tr, "gen.build");
    s->problem = ex::build_problem(ex::ScenarioSpec::parse(base));
  }
  {
    // Ones plus a 1e-6 seeded perturbation: a fully random rhs needs 12
    // or 13 outer iterations depending on the seed, and a 1% perturbation
    // 11 or 12, which moves every cell's site count and time with the
    // seed.  At 1e-6 every seed takes 10.
    ScopedSpan span(tr, "gen.rhs");
    s->b = seeded_rhs(s->problem.A.rows(), seed, 1.0, 1e-6);
  }
  double fro = 0.0;
  {
    ScopedSpan span(tr, "sparse.frobenius");
    fro = s->problem.A.frobenius_norm();
  }
  std::shared_ptr<const kr::MatrixBackend> backend;
  {
    ScopedSpan span(tr, "sparse.backend");
    backend = sdcgmres::solver::backend_registry().make("csr", s->problem.A);
  }
  ScopedSpan span(tr, "experiment.config");
  for (int c = 0; c < 2; ++c) {
    s->cells[c] =
        ex::sweep_config_from_spec(ex::ScenarioSpec::parse(cell_specs[c]), fro);
    s->cells[c].backend = backend;
  }
  return s;
}

void workload_sweep(const Args& a, Outcome& out) {
  const std::string base =
      a.smoke ? "matrix=poisson n=16 inner=8" : "matrix=poisson n=100 inner=25";
  const std::string sweep_keys =
      " sweep=1 fault=class1 position=first stride=12 threads=2 batch=4";
  const std::string cell_specs[2] = {
      base + sweep_keys,
      base + sweep_keys + " detector=bound recovery=retry_reliable"};
  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;

  // setup_s: 21 setups here and two more after every timed cell, so the
  // median samples the whole run like the solves below.
  std::vector<double> setup_t;
  const auto setup = [&](Tracer* t) {
    const double t0 = now_s();
    std::unique_ptr<SweepSetup> made = setup_sweep(base, cell_specs, a.seed, t);
    setup_t.push_back(now_s() - t0);
    return made;
  };
  std::unique_ptr<SweepSetup> s;
  for (int rep = 0; rep < 21; ++rep) {
    s.reset();
    s = setup(tr);
  }

  // The reference cells run once, untimed, before timing starts; every
  // timed unit is then checked bitwise against them.
  std::vector<ex::SweepResult> reference;
  for (int c = 0; c < 2; ++c) {
    reference.push_back(
        ex::run_injection_sweep(s->problem.A, s->b, s->cells[c]));
  }
  // solve_s: the failure-free solve at the sweep's shape, through the
  // facade, kernels pinned to one thread like the sweep's own baseline.
  // The solves run between the cells, so they sample the whole run
  // rather than one stretch of it.
  const kr::CsrOperator op(s->problem.A);
  sdcgmres::solver::FtGmresSolver solver(op, s->cells[0].solver);
  std::vector<double> x(s->problem.A.rows());
  std::vector<double> solve_t;
  const auto solves = [&] {
    const SerialKernels serial;
    for (int rep = 0; rep < (a.smoke ? 1 : 3); ++rep) {
      const double t0 = now_s();
      const auto rep_report = solver.solve(s->b.span(), std::span<double>(x));
      solve_t.push_back(now_s() - t0);
      ++out.attempted;
      if (!solve_ok(rep_report.converged(),
                    relative_residual(s->problem.A, s->b.span(), x),
                    s->cells[0].solver.outer.tol)) {
        ++out.failed;
      }
    }
  };

  // A unit (one "job" here) is the pair of cells; its time excludes the
  // solves.
  std::vector<double> unit_t;
  std::vector<double> unit_t_traced;
  double sites = 0.0;
  const auto unit = [&](Tracer* t) {
    double cells_s = 0.0;
    for (int c = 0; c < 2; ++c) {
      const double t0 = now_s();
      {
        ScopedSpan span(t, "experiment.sweep_cell");
        const ex::SweepResult r =
            ex::run_injection_sweep(s->problem.A, s->b, s->cells[c]);
        const std::size_t points = r.points.size();
        out.attempted += points;
        if (r.failed_runs() != 0 ||
            !sweep_identical(reference[static_cast<std::size_t>(c)], r)) {
          out.failed += points;
        }
        if (!t) sites += static_cast<double>(points);
      }
      cells_s += now_s() - t0;
      if (!t) {
        solves();
        for (int rep = 0; rep < 2; ++rep) setup(nullptr);
      }
    }
    (t ? unit_t_traced : unit_t).push_back(cells_s);
  };
  if (a.trace) {
    unit(nullptr);
    unit(&tracer);
  } else {
    run_units(a.seconds, [&] { unit(nullptr); });
  }

  double wall = 0.0;
  for (const double t : unit_t) wall += t;
  // The host's contention comes in stretches of seconds that can cover
  // most of a run and slow this cache-resident solve by up to 1.5x, so
  // solve_s is the fast tail of the interleaved solves, not their median.
  put_e2e(out, median(setup_t), percentile(solve_t, 10), unit_t,
          static_cast<double>(unit_t.size()), sites, wall);

  out.rows = s->problem.A.rows();
  out.nnz = s->problem.A.nnz();
  const ex::SweepResult& r0 = reference[0];
  // Computed working set: the matrix plus, per worker (2) and lockstep
  // instance (batch 4), the inner basis and the outer V and Z columns.
  const double rows = static_cast<double>(out.rows);
  out.working_set_bytes =
      16.0 * static_cast<double>(out.nnz) + 8.0 * (rows + 1) +
      2.0 * 4.0 * 8.0 * rows *
          (static_cast<double>(s->cells[0].solver.inner.max_iters + 1) +
           2.0 * static_cast<double>(r0.baseline_outer + 1));
  std::vector<std::pair<std::string, std::string>> cells;
  for (int c = 0; c < 2; ++c) {
    const ex::SweepResult& r = reference[static_cast<std::size_t>(c)];
    cells.emplace_back(
        c == 0 ? "unguarded" : "guarded",
        jobj({{"points", jnum(static_cast<double>(r.points.size()))},
              {"baseline_outer", jnum(static_cast<double>(r.baseline_outer))},
              {"baseline_inner",
               jnum(static_cast<double>(r.baseline_total_inner))},
              {"inner_applies",
               jnum(static_cast<double>(r.inner_operand_columns()))},
              {"failed", jnum(static_cast<double>(r.failed_runs()))},
              {"detected", jnum(static_cast<double>(r.detected_runs()))},
              {"reliable_retries",
               jnum(static_cast<double>(r.retried_reliable()))}}));
  }
  out.report.emplace_back("cells", jobj(cells));
  out.report.emplace_back(
      "solve_quantiles",
      jobj({{"count", jnum(static_cast<double>(solve_t.size()))},
            {"p10_s", jnum(percentile(solve_t, 10))},
            {"p25_s", jnum(percentile(solve_t, 25))},
            {"p50_s", jnum(percentile(solve_t, 50))},
            {"p75_s", jnum(percentile(solve_t, 75))}}));

  if (!a.trace) return;
  ProbeContext ctx;
  ctx.A = &s->problem.A;
  ctx.op = &op;
  ctx.seed = a.seed;
  ctx.smoke = a.smoke;
  ctx.work_dir = a.work_dir;
  ProbeFacts facts;
  out.probes_ok = run_layer_probes(ctx, tracer, out.layer, facts);
  // The sweep's own counts replace the probe's single faulted solve.
  double injections = 0, detections = 0, retries = 0, syncs = 0;
  kr::OperatorStats traffic;
  for (const ex::SweepResult& r : reference) {
    for (const ex::SweepPoint& p : r.points) injections += p.injected ? 1 : 0;
    detections += static_cast<double>(r.detected_runs());
    retries += static_cast<double>(r.retried_reliable());
    syncs += static_cast<double>(r.total_global_syncs());
    traffic += r.operator_stats;
  }
  put(out.layer, "gen.build_s", median(tracer.durations("gen.build")), "s");
  put(out.layer, "sdc.injections", injections, "count");
  put(out.layer, "sdc.detections", detections, "count");
  put(out.layer, "sdc.reliable_retries", retries, "count");
  put(out.layer, "krylov.outer_iters", static_cast<double>(r0.baseline_outer),
      "count");
  put(out.layer, "krylov.inner_iters",
      static_cast<double>(r0.baseline_total_inner), "count");
  put(out.layer, "krylov.global_syncs", syncs, "count");
  put(out.layer, "krylov.operator_bytes", static_cast<double>(traffic.bytes()),
      "bytes");
  put(out.layer, "krylov.stream_ratio",
      static_cast<double>(traffic.streams()) /
          static_cast<double>(std::max<std::size_t>(1, traffic.columns())),
      "ratio");
  // Distinct outcomes per cell: 1 when the timed cells matched the
  // reference (a mismatch also counts every point of the cell as failed).
  put(out.layer, "krylov.distinct_digests", out.failed > 0 ? 2.0 : 1.0,
      "count");
  put(out.layer, "trace.overhead", unit_t_traced.front() / unit_t.front(),
      "ratio");
  finish_trace(tracer, facts, out);
}

// ---------------------------------------------------------------------------
// serve-burst: closed loop against the in-process service
// ---------------------------------------------------------------------------

/// Service starts per run; setup_s is their median (each start takes
/// ~0.2 ms, so many are needed for a steady median).
constexpr int kServeSetups = 51;

void workload_serve(const Args& a, Outcome& out) {
  const JobCatalog catalog = make_catalog(a.seed);
  const std::vector<JobSpec> order = make_job_order(catalog, a.seed, 4096);
  Tracer tracer;

  // The first start creates the spool; the others restart on it, as a
  // restarted daemon does.
  const std::string root = a.work_dir + "/spool";
  std::filesystem::remove_all(root);
  std::vector<double> setup_t;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < kServeSetups; ++rep) {
    service.reset();
    const double t0 = now_s();
    service = std::make_unique<Service>(root, 2);
    setup_t.push_back(now_s() - t0);
  }

  const double loop_s = a.trace ? a.seconds / 2 : a.seconds;
  const LoopResult loop =
      closed_loop(*service, catalog, order, loop_s, 0, nullptr);
  LoopResult traced;
  if (a.trace) {
    traced = closed_loop(*service, catalog, order, loop_s, 0, &tracer);
  }
  out.attempted = loop.attempted + traced.attempted;
  out.failed = loop.failed + traced.failed;
  put_e2e(out, median(setup_t), median(loop.solve_latency_s), loop.latency_s,
          static_cast<double>(loop.completed), static_cast<double>(loop.sites),
          loop.wall_s);
  const double p50 = percentile(loop.latency_s, 50);
  out.report.emplace_back(
      "loop",
      jobj({{"clients", "1"},
            {"outstanding", jnum(static_cast<double>(kOutstanding))},
            {"scheduler_workers", "2"},
            {"jobs", jnum(static_cast<double>(loop.completed))},
            {"jobs_beyond_p95",
             jnum(std::floor(0.05 * static_cast<double>(loop.latency_s.size())))},
            {"inprocess_median_s", jnum(median(catalog.inprocess_s))}}));

  ex::ScenarioProblem problem;
  {
    ScopedSpan span(a.trace ? &tracer : nullptr, "gen.build");
    problem = ex::build_problem(ex::ScenarioSpec::parse(catalog.specs[0]));
  }
  out.rows = problem.A.rows();
  out.nnz = problem.A.nnz();
  out.working_set_bytes = 16.0 * static_cast<double>(out.nnz);

  if (a.trace) {
    service_metrics(traced, *service, tracer, out.layer);
    const kr::CsrOperator op(problem.A);
    ProbeContext ctx;
    ctx.A = &problem.A;
    ctx.op = &op;
    ctx.seed = a.seed;
    ctx.smoke = a.smoke;
    ctx.service_probe = false;
    ctx.work_dir = a.work_dir;
    ProbeFacts facts;
    out.probes_ok = run_layer_probes(ctx, tracer, out.layer, facts);
    put(out.layer, "gen.build_s", tracer.total("gen.build"), "s");
    put(out.layer, "krylov.outer_iters",
        static_cast<double>(catalog.outer_iters), "count");
    put(out.layer, "krylov.inner_iters",
        static_cast<double>(catalog.inner_iters), "count");
    put(out.layer, "krylov.global_syncs",
        static_cast<double>(catalog.global_syncs), "count");
    put(out.layer, "krylov.operator_bytes", catalog.operator_bytes, "bytes");
    put(out.layer, "krylov.stream_ratio",
        catalog.streams / std::max(1.0, catalog.columns), "ratio");
    put(out.layer, "krylov.distinct_digests", out.failed > 0 ? 2.0 : 1.0,
        "count");
    put(out.layer, "trace.overhead", percentile(traced.latency_s, 50) / p50,
        "ratio");
    finish_trace(tracer, facts, out);
  }
  service.reset();
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Oracle self-test: corrupted outputs must be flagged.
// ---------------------------------------------------------------------------

int selftest_oracle() {
  std::size_t attempted = 0, flagged = 0;
  bool clean_ok = true;
  // 1. A corrupted iterate.
  {
    const ex::ScenarioSpec spec =
        ex::ScenarioSpec::parse("matrix=poisson n=24 inner=8");
    auto s = setup_solve(spec, 7, nullptr);
    const kr::FtGmresResult r = kr::ft_gmres(*s->op, s->b, s->opts, nullptr,
                                             &s->ws);
    const double tol = s->opts.outer.tol;
    clean_ok = clean_ok &&
               solve_ok(kr::is_success(r.status),
                        relative_residual(s->problem.A, s->b.span(),
                                          r.x.span()),
                        tol);
    la::Vector bad = r.x;
    bad[bad.size() / 2] += 1e-3;
    ++attempted;
    if (!solve_ok(kr::is_success(r.status),
                  relative_residual(s->problem.A, s->b.span(), bad.span()),
                  tol)) {
      ++flagged;
    }
  }
  // 2. A corrupted result document; 3. a corrupted sweep point.
  {
    const ex::ScenarioResult r = ex::run_scenario(
        "matrix=poisson n=16 inner=8 sweep=1 fault=class1 site_limit=8");
    std::ostringstream doc;
    ex::write_scenario_json(doc, r);
    const std::string good = doc.str();
    std::string bad = good;
    const std::size_t at = bad.find_first_of("0123456789");
    bad[at] = bad[at] == '9' ? '8' : static_cast<char>(bad[at] + 1);
    clean_ok = clean_ok && document_ok(good, good);
    ++attempted;
    if (!document_ok(good, bad)) ++flagged;

    ex::SweepResult corrupted = r.sweep;
    corrupted.points.at(0).outer_iterations += 1;
    clean_ok = clean_ok && sweep_identical(r.sweep, r.sweep);
    ++attempted;
    if (!sweep_identical(r.sweep, corrupted)) ++flagged;
  }
  const bool correct = clean_ok && flagged == attempted;
  std::cout << jobj({{"correct", correct ? "true" : "false"},
                     {"attempted", jnum(static_cast<double>(attempted))},
                     {"failed", jnum(static_cast<double>(flagged))},
                     {"metrics",
                      jmetrics({{"error_rate",
                                 {static_cast<double>(flagged) /
                                      static_cast<double>(attempted),
                                  "ratio"}}})}})
            << std::endl;
  return correct ? 0 : 1;
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload solve-dram|solve-ca|sweep-fig3|"
               "serve-burst --seed N --seconds S --trace 0|1 --work DIR "
               "[--commit SHA] [--smoke]\n"
               "       perfbench --selftest-oracle --work DIR\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (tok == "--workload") a.workload = value();
    else if (tok == "--seed") a.seed = std::stoull(value());
    else if (tok == "--seconds") a.seconds = std::stod(value());
    else if (tok == "--trace") a.trace = value() == "1";
    else if (tok == "--work") a.work_dir = value();
    else if (tok == "--commit") a.commit = value();
    else if (tok == "--smoke") a.smoke = true;
    else if (tok == "--selftest-oracle") a.selftest = true;
    else usage();
  }
  if (a.seconds <= 0.0) usage();
  return a;
}

int run(const Args& a) {
  std::filesystem::create_directories(a.work_dir);
  if (a.selftest) return selftest_oracle();
  Outcome out;
  if (a.workload == "solve-dram") {
    // tol sits between the 3rd (~1.1e-2) and 2nd (~1.55e-2) outer
    // residual of every seeded rhs, so each seed takes 3 outer iterations.
    workload_solve(a,
                   std::string(a.smoke ? "matrix=poisson n=40"
                                       : "matrix=poisson n=1000") +
                       " inner=25 tol=1.3e-2 max_iters=12",
                   out);
  } else if (a.workload == "solve-ca") {
    workload_solve(a,
                   std::string(a.smoke ? "matrix=poisson3d n=12"
                                       : "matrix=poisson3d n=72") +
                       " inner=25 s=4 precision=float index=32 backend=sell"
                       " max_iters=24",
                   out);
  } else if (a.workload == "sweep-fig3") {
    workload_sweep(a, out);
  } else if (a.workload == "serve-burst") {
    workload_serve(a, out);
  } else {
    usage();
  }

  const std::size_t l2 = cache_bytes(2);
  const std::size_t l3 = cache_bytes(3);
  std::vector<std::pair<std::string, std::string>> manifest = {
      {"workload", jstr(a.workload)},
      {"seed", jnum(static_cast<double>(a.seed))},
      {"seconds", jnum(a.seconds)},
      {"trace", a.trace ? "true" : "false"},
      {"smoke", a.smoke ? "true" : "false"},
      {"nproc", jnum(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))},
      {"kernel_threads", jnum(kernel_threads())},
      {"l2_bytes", jnum(static_cast<double>(l2))},
      {"l3_bytes", jnum(static_cast<double>(l3))},
      {"rows", jnum(static_cast<double>(out.rows))},
      {"nnz", jnum(static_cast<double>(out.nnz))},
      {"working_set_bytes_computed", jnum(out.working_set_bytes)},
      {"working_set_l3_ratio",
       jnum(l3 > 0 ? out.working_set_bytes / static_cast<double>(l3) : 0.0)},
      {"build_type", jstr(PERFBENCH_BUILD_TYPE)},
      {"compiler", jstr(__VERSION__)},
      {"commit", jstr(a.commit)}};
  std::vector<std::pair<std::string, std::string>> report = {
      {"manifest", jobj(manifest)},
      {"error_rate",
       jnum(static_cast<double>(out.failed) /
            static_cast<double>(std::max<std::size_t>(1, out.attempted)))}};
  report.insert(report.end(), out.report.begin(), out.report.end());
  if (a.trace) report.emplace_back("end_to_end_traced", jmetrics(out.e2e));

  const Metrics& shown = a.trace ? out.layer : out.e2e;
  for (const auto& [name, m] : shown) {
    std::cerr << "  " << name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cerr << "  error_rate = " << out.failed << "/" << out.attempted << "\n";
  const bool correct = out.failed == 0 && out.probes_ok && out.attempted > 0;
  std::cout << jobj({{"report", jobj(report)}}) << "\n";
  std::cout << jobj({{"correct", correct ? "true" : "false"},
                     {"attempted", jnum(static_cast<double>(out.attempted))},
                     {"failed", jnum(static_cast<double>(out.failed))},
                     {"metrics", jmetrics(shown)}})
            << std::endl;
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
